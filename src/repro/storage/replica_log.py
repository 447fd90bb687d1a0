"""Replica log: the one owner of the replicated op-log format (Sec. IV).

Shard failover (:mod:`repro.cluster.failover`) and geo replication
(:mod:`repro.geo.replication`) keep the same log: a primary
:class:`~repro.storage.wal.WriteAheadLog` of *absolute post-states*
(entity values, product records, stock levels after a committed
purchase) whose LSNs every other copy adopts verbatim.  Replaying
absolute post-states is idempotent, so a promoted replica can never
re-execute a purchase.  This module alone knows the op codec, the
:class:`Fold` every replay and apply site calls, :func:`compact_entries`,
the Merkle digest, and one owner's copy set (:class:`ReplicaLog`).
Placement policy — who holds copies, when entries ship, which copy is the
truth during repair, when to compact — belongs to the callers.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from ..ledger.merkle import MerkleTree
from .wal import WalEntry, WriteAheadLog


def entity_op(key: str, value) -> dict:
    return {"op": "entity", "k": key, "v": value}


def drop_entity_op(key: str) -> dict:
    return {"op": "drop_entity", "k": key}


def product_op(key: str, value: dict) -> dict:
    return {"op": "product", "k": key, "v": dict(value)}


def drop_product_op(key: str) -> dict:
    return {"op": "drop_product", "k": key}


def stock_op(key: str, stock: int) -> dict:
    return {"op": "stock", "k": key, "stock": int(stock)}


def encode(op: dict) -> bytes:
    return json.dumps(op, sort_keys=True).encode("utf-8")


def decode(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8"))


def op_key(op: dict) -> str:
    """The entity or product key an op sets."""
    return op.get("k")


#: Final state of a key whose last op deleted it.
DROPPED = object()


class Fold:
    """Per-key final states of an op stream, folded in the order given.

    ``entities`` and ``products`` map each key to its last state (or
    :data:`DROPPED`); ``lsns`` holds the highest LSN folded per key.  A
    ``stock`` op sets only the stock field, on top of ``base(key)`` (a
    live committed record) for a key the fold has not met, else of an
    empty record.  With ``on_entity``, entity ops go to the callback in
    log order instead of being folded.  A key set again after a drop
    moves to the end, as a deleted and re-inserted dict key would.
    """

    def __init__(
        self,
        base: Callable[[str], dict | None] | None = None,
        on_entity: Callable[[str, object], None] | None = None,
    ) -> None:
        self.entities: dict[str, object] = {}
        self.products: dict[str, object] = {}
        self.lsns: dict[str, int] = {}
        self._base = base
        self._on_entity = on_entity

    def add(self, lsn: int, op: dict) -> None:
        """Fold one decoded op."""
        kind, key = op.get("op"), op.get("k")
        self.lsns[key] = max(self.lsns.get(key, lsn), lsn)
        if kind in ("entity", "drop_entity"):
            value = op["v"] if kind == "entity" else DROPPED
            if self._on_entity is not None:
                self._on_entity(key, value)
            else:
                _set(self.entities, key, value)
        elif kind == "product":
            _set(self.products, key, dict(op["v"]))
        elif kind == "drop_product":
            _set(self.products, key, DROPPED)
        elif kind == "stock":
            value = self.products.get(key, DROPPED)
            if value is DROPPED:
                start = None
                if key not in self.products and self._base is not None:
                    start = self._base(key)
                value = dict(start) if start is not None else {}
                _set(self.products, key, value)
            value["stock"] = int(op["stock"])

    def entity(self, key: str):
        """Final value of entity ``key`` (None when absent or dropped)."""
        value = self.entities.get(key, DROPPED)
        return None if value is DROPPED else value

    def stock(self, key: str) -> int | None:
        """Final stock of product ``key`` (None when absent or dropped)."""
        value = self.products.get(key, DROPPED)
        return None if value is DROPPED else int(value.get("stock", 0))


def _set(states: dict, key: str, value) -> None:
    if value is DROPPED or states.get(key) is DROPPED:
        states.pop(key, None)
    states[key] = value


def fold(
    entries: Iterable[WalEntry],
    keys: set[str] | None = None,
    base: Callable[[str], dict | None] | None = None,
    on_entity: Callable[[str, object], None] | None = None,
) -> Fold:
    """Fold ``entries`` in order, only the ops on ``keys`` when given."""
    state = Fold(base=base, on_entity=on_entity)
    for entry in entries:
        op = decode(entry.payload)
        if keys is None or op.get("k") in keys:
            state.add(entry.lsn, op)
    return state


_KINDS = ("entity", "drop_entity", "product", "drop_product", "stock")


def compact_entries(entries: list[WalEntry]) -> list[WalEntry]:
    """Drop the post-states a later op *in this same copy* supersedes, so
    the survivors fold exactly as the whole, for any interleaving with
    other copies' entries in the LSN-union.

    Only the last op per key and family survives; a product-family op
    also supersedes any earlier ``stock`` op, while the last ``stock`` op
    survives beside an older product op (it sets only the stock field).
    Survivors keep their original LSNs — a synthesized full record could
    claim non-stock fields at an LSN newer than a genuine ``product`` op
    this copy missed (a replication hole).  Unknown op kinds are kept.
    """
    # Hinted handoff can append old LSNs after newer ones, so buffer
    # order is not LSN order; sort first so "last seen" == "highest LSN".
    last: dict[object, WalEntry] = {}
    for i, entry in enumerate(sorted(entries, key=lambda entry: entry.lsn)):
        op = decode(entry.payload)
        # A drop and a set of the same key replace each other wholesale.
        family = op["op"].removeprefix("drop_") if op.get("op") in _KINDS else None
        if family == "product":
            last.pop(("stock", op.get("k")), None)
        last[(family, op.get("k")) if family else i] = entry
    return sorted(last.values(), key=lambda entry: entry.lsn)


def merkle_root(entries: list[WalEntry]) -> bytes:
    """RFC-6962 root over ``(lsn, payload)`` leaves, in the order given."""
    tree = MerkleTree()
    for entry in entries:
        tree.append(f"{entry.lsn}:".encode("utf-8") + entry.payload)
    return tree.root()


class ReplicaLog:
    """One owner's op log: the primary plus a copy per replica holder.

    The primary (the owner's own copy) assigns LSNs; replica copies adopt
    them verbatim with ``append_at``, so a missed replication message
    leaves a visible LSN hole rather than a silent renumbering.  Entries
    bound for an unreachable holder wait in :attr:`hints`.  :attr:`lsns`
    lists the primary's intact LSNs in log order, so counting them needs
    no scan.
    """

    def __init__(self, owner: str, replicas: Iterable[str]) -> None:
        self.owner = owner
        self.primary = WriteAheadLog()
        #: Holders other than the owner, in placement order.
        self.replicas = list(replicas)
        #: holder -> its copy; the owner first, holding the primary.
        self.copies = {owner: self.primary}
        for holder in self.replicas:
            self.copies[holder] = WriteAheadLog()
        #: replica holder -> ``(lsn, payload)`` bound for it, in ship order.
        self.hints: dict[str, list[tuple[int, bytes]]] = {}
        self.lsns: list[int] = []

    def append(self, op: dict) -> tuple[int, bytes]:
        """Log ``op`` on the primary; returns ``(lsn, payload)``."""
        payload = encode(op)
        lsn = self.primary.append(payload)
        self.lsns.append(lsn)
        return lsn, payload

    def adopt(self, holder: str, lsn: int, payload: bytes) -> None:
        self.copies[holder].append_at(lsn, payload)

    def entries(self, holder: str) -> list[WalEntry]:
        """The valid prefix of ``holder``'s copy."""
        return self.copies[holder].recover_prefix()[0]

    def tear(self, nbytes: int) -> None:
        """Chop ``nbytes`` off the primary (a crash mid-write)."""
        self.primary.corrupt_tail(nbytes)
        self.lsns = [entry.lsn for entry in self.entries(self.owner)]

    def union(self) -> list[WalEntry]:
        """LSN-union of every copy's valid prefix, sorted by LSN: torn
        tails and per-copy holes are filled from other copies; an LSN no
        copy holds is lost."""
        merged: dict[int, WalEntry] = {}
        for copy in self.copies.values():
            for entry in copy.replay():
                merged.setdefault(entry.lsn, entry)
        return [merged[lsn] for lsn in sorted(merged)]

    def diverged(self, holders: Iterable[str], entries: list[WalEntry]) -> bool:
        """True when any holder's copy has a Merkle root other than
        ``entries``'."""
        target = merkle_root(entries)
        return any(merkle_root(self.entries(h)) != target for h in holders)

    def rebuild(self, holders: Iterable[str], entries: list[WalEntry]) -> None:
        for holder in holders:
            self.copies[holder].rebuild(entries)
            if holder == self.owner:
                self.lsns = [entry.lsn for entry in entries]

    def compact(self, holder: str) -> int:
        """Compact ``holder``'s copy in place when that drops entries;
        returns how many it dropped."""
        entries = self.entries(holder)
        kept = compact_entries(entries)
        if len(kept) < len(entries):
            self.rebuild([holder], kept)
        return len(entries) - len(kept)
