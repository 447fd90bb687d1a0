"""Data-lifecycle invariants: checkpointing, compaction, tiering (PR: E28).

Three property suites guard the lifecycle machinery's one non-negotiable
contract — managing data volume must never change what recovery or reads
observe:

* **checkpoint + truncate + recover ≡ full replay** — a KV store restored
  from snapshot + WAL suffix is byte-identical (JSON-canonical) to one
  that replayed the whole history;
* **replica-log compaction preserves the LSN-union fold** — for any op
  stream, any per-copy hole pattern, and any torn tail, replaying the
  union with compacted copies yields exactly the state of the uncompacted
  union;
* **tier demotion/promotion round-trips bitwise** — a value demoted to
  the cold object tier and promoted back compares equal, and its
  canonical encoding is byte-identical;
* **a replica copy's incremental digest equals the one-shot root** — for
  any interleaving of appends, out-of-order and holey adoptions, torn
  tails, compaction, rebuilds and primary repairs, the cached Merkle root
  of every copy equals ``merkle_root`` over its valid prefix.

Plus deterministic regression tests for the WAL truncation-floor fix (the
satellite bugfix: ``corrupt_tail`` + append after a checkpoint truncated
the prefix must not resurrect LSN accounting from 0).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, KeyNotFoundError, StorageError
from repro.storage import (
    CheckpointManager,
    KVStore,
    LifecyclePolicy,
    ObjectStore,
    TieredStorageEngine,
    WalEntry,
    WriteAheadLog,
)
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.storage.replica_log import (
    DROPPED,
    ReplicaLog,
    compact_entries,
    entity_op,
    fold,
    merkle_root,
    stock_op,
)

pytestmark = [pytest.mark.lifecycle]

# -- strategies --------------------------------------------------------------

keys = st.integers(0, 12).map(lambda i: f"k{i:02d}")
values = st.recursive(
    st.one_of(
        st.integers(-(10**9), 10**9),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=6,
)

kv_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys, st.none()),
    ),
    min_size=1,
    max_size=60,
)


def kv_state(kv: KVStore) -> str:
    """Canonical JSON of everything a reader can observe."""
    return json.dumps(list(kv.scan("", "￿")), sort_keys=True)


def apply_ops(kv: KVStore, ops) -> None:
    for op, key, value in ops:
        if op == "put":
            kv.put(key, value)
        else:
            try:
                kv.delete(key)
            except KeyNotFoundError:
                pass


# -- property: checkpoint + truncate + recover ≡ full replay ------------------


class TestCheckpointRecovery:
    @settings(max_examples=60, deadline=None)
    @given(ops=kv_ops, split=st.integers(0, 60))
    def test_recover_matches_full_replay(self, ops, split):
        """Snapshot + suffix replay observes exactly what full replay does."""
        split = min(split, len(ops))
        # Reference: full history, no checkpointing.
        ref = KVStore()
        apply_ops(ref, ops)
        # Checkpointed: snapshot mid-stream, truncate, keep writing.
        kv = KVStore()
        ckpt = CheckpointManager(kv, ObjectStore(), keep=2)
        apply_ops(kv, ops[:split])
        ckpt.checkpoint()
        apply_ops(kv, ops[split:])
        # Crash: fresh store sharing the WAL, restored via the manager.
        fresh = KVStore(wal=kv.wal)
        ckpt.recover(fresh)
        assert kv_state(fresh) == kv_state(ref)

    @settings(max_examples=30, deadline=None)
    @given(ops=kv_ops, splits=st.lists(st.integers(0, 60), max_size=3))
    def test_repeated_checkpoints(self, ops, splits):
        """Multiple checkpoints (with pruning) still recover exactly."""
        ref = KVStore()
        apply_ops(ref, ops)
        kv = KVStore()
        ckpt = CheckpointManager(kv, ObjectStore(), keep=1)
        cuts = sorted(min(s, len(ops)) for s in splits)
        prev = 0
        for cut in cuts:
            apply_ops(kv, ops[prev:cut])
            ckpt.checkpoint()
            prev = cut
        apply_ops(kv, ops[prev:])
        fresh = KVStore(wal=kv.wal)
        ckpt.recover(fresh)
        assert kv_state(fresh) == kv_state(ref)

    def test_recovery_work_bounded_by_live_state(self):
        """After a checkpoint, recovery replays suffix only — not history."""
        kv = KVStore()
        ckpt = CheckpointManager(kv, ObjectStore())
        for round_ in range(50):
            for i in range(4):
                kv.put(f"k{i}", {"round": round_})
        lsn = ckpt.checkpoint()
        assert lsn == kv.wal.last_valid_lsn
        assert kv.wal.entry_count == 0
        kv.put("k0", {"round": "post"})
        fresh = KVStore(wal=kv.wal)
        snapshot_entries, wal_entries = ckpt.recover(fresh)
        assert snapshot_entries == 4  # live keys, not 200 historical writes
        assert wal_entries == 1  # the suffix
        assert fresh.get("k0") == {"round": "post"}
        assert fresh.get("k3") == {"round": 49}

    def test_recover_without_checkpoint_degrades_to_replay(self):
        kv = KVStore()
        ckpt = CheckpointManager(kv, ObjectStore())
        kv.put("a", 1)
        fresh = KVStore(wal=kv.wal)
        assert ckpt.recover(fresh) == (0, 1)
        assert fresh.get("a") == 1

    def test_checkpoint_chain_is_pruned(self):
        kv = KVStore()
        objects = ObjectStore()
        ckpt = CheckpointManager(kv, objects, keep=2)
        for i in range(5):
            kv.put("k", i)
            ckpt.checkpoint()
        assert len(objects.versions(ckpt.name)) == 2


# -- property: compaction preserves the LSN-union fold ------------------------


def _encode(op: dict) -> bytes:
    return json.dumps(op, sort_keys=True).encode("utf-8")


def _fold(entries):
    """Reference replay fold — the oracle the shared
    ``repro.storage.replica_log.fold`` is checked against."""
    entities: dict[str, object] = {}
    products: dict[str, dict] = {}
    for entry in sorted(entries, key=lambda e: e.lsn):
        op = json.loads(entry.payload.decode("utf-8"))
        kind = op["op"]
        if kind == "entity":
            entities[op["k"]] = op["v"]
        elif kind == "drop_entity":
            entities.pop(op["k"], None)
        elif kind == "product":
            products[op["k"]] = dict(op["v"])
        elif kind == "drop_product":
            products.pop(op["k"], None)
        elif kind == "stock":
            products.setdefault(op["k"], {})["stock"] = int(op["stock"])
    return json.dumps({"e": entities, "p": products}, sort_keys=True)


def _shared_fold(entries):
    """The shared fold, rendered in the reference's shape."""
    state = fold(sorted(entries, key=lambda e: e.lsn))

    def live(states):
        return {k: v for k, v in states.items() if v is not DROPPED}

    return json.dumps(
        {"e": live(state.entities), "p": live(state.products)}, sort_keys=True
    )


def _union(copies):
    merged = {}
    for copy in copies:
        for entry in copy:
            merged.setdefault(entry.lsn, entry)
    return [merged[lsn] for lsn in sorted(merged)]


replica_ops = st.lists(
    st.one_of(
        st.tuples(st.just("entity"), keys, values),
        st.tuples(st.just("drop_entity"), keys, st.none()),
        st.tuples(st.just("drop_product"), keys, st.none()),
        st.tuples(
            st.just("product"),
            keys,
            st.fixed_dictionaries(
                {"name": st.text(max_size=6), "stock": st.integers(0, 99)}
            ),
        ),
        st.tuples(st.just("stock"), keys, st.integers(0, 99)),
    ),
    min_size=1,
    max_size=50,
)


def _materialize(ops):
    """Primary log entries (LSNs 1..n) for the generated op stream."""
    entries = []
    for lsn, (kind, key, value) in enumerate(ops, start=1):
        if kind in ("entity", "product"):
            op = {"op": kind, "k": key, "v": value}
        elif kind == "stock":
            op = {"op": "stock", "k": key, "stock": value}
        else:
            op = {"op": kind, "k": key}
        entries.append(WalEntry(lsn=lsn, payload=_encode(op)))
    return entries


class TestCompactionPreservesUnion:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=replica_ops,
        hole_seed=st.lists(st.booleans(), max_size=50),
        torn=st.integers(0, 10),
        data=st.data(),
    )
    def test_union_fold_identical(self, ops, hole_seed, torn, data):
        """Compacting any subset of copies never changes the union fold."""
        primary = _materialize(ops)
        # Replica copy: primary minus a hole pattern (dropped replication).
        holes = (hole_seed + [False] * len(primary))[: len(primary)]
        replica = [e for e, drop in zip(primary, holes) if not drop]
        # Torn tail on the primary: only its valid prefix survives.
        primary_prefix = primary[: max(0, len(primary) - torn)]
        copies = [primary_prefix, replica]
        baseline = _fold(_union(copies))
        assert _shared_fold(_union(copies)) == baseline
        # Compact every subset of copies; the fold must never move.
        for mask in range(1, 4):
            compacted = [
                compact_entries(copy) if (mask >> i) & 1 else copy
                for i, copy in enumerate(copies)
            ]
            assert _fold(_union(compacted)) == baseline
            assert _shared_fold(_union(compacted)) == baseline
        # Compaction is idempotent and only ever shrinks.
        once = compact_entries(primary_prefix)
        assert compact_entries(once) == once
        assert len(once) <= len(primary_prefix)

    def test_superseded_stock_collapses(self):
        entries = _materialize(
            [("product", "p", {"name": "x", "stock": 9})]
            + [("stock", "p", i) for i in range(20)]
        )
        compacted = compact_entries(entries)
        # Last product op + last stock op survive, nothing else.
        assert len(compacted) == 2
        assert compacted[0].lsn == 1 and compacted[1].lsn == 21
        assert _fold(compacted) == _fold(entries)

    def test_product_newer_than_stock_stands_alone(self):
        entries = _materialize(
            [("stock", "p", 5), ("product", "p", {"name": "x", "stock": 3})]
        )
        compacted = compact_entries(entries)
        assert [e.lsn for e in compacted] == [2]

    def test_unknown_ops_kept_verbatim(self):
        alien = WalEntry(lsn=7, payload=_encode({"op": "future", "k": "z"}))
        entries = _materialize([("entity", "a", 1)]) + [alien]
        assert alien in compact_entries(entries)

    def test_recreated_product_folds_last(self):
        """A product dropped and set again moves to the end, as a dict
        delete + insert would: replay commits products in this order."""
        entries = _materialize([
            ("product", "a", {"name": "a", "stock": 1}),
            ("product", "b", {"name": "b", "stock": 1}),
            ("drop_product", "a", None),
            ("stock", "c", 4),
            ("stock", "a", 2),
        ])
        state = fold(entries)
        assert list(state.products) == ["b", "c", "a"]
        assert state.products["a"] == {"stock": 2}
        assert state.lsns == {"a": 5, "b": 2, "c": 4}


# -- property: the incremental digest equals the one-shot root ----------------

HOLDERS = ("own", "r1", "r2")

digest_steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), keys, st.integers(-1, 99)),
        # Adopt (or drop, leaving a hole) the pending entry at a random
        # position of a holder's queue: arrivals out of LSN order.
        st.tuples(st.just("adopt"), st.integers(1, 2), st.integers(0, 50)),
        st.tuples(st.just("drop"), st.integers(1, 2), st.integers(0, 50)),
        st.tuples(st.just("tear"), st.just(0), st.integers(0, 40)),
        st.tuples(st.just("compact"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("rebuild"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("repair"), st.integers(1, 2), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


class TestIncrementalDigest:
    @settings(max_examples=80, deadline=None)
    @given(steps=digest_steps)
    def test_cached_root_equals_one_shot_root(self, steps):
        log = ReplicaLog("own", ["r1", "r2"])
        pending = {"r1": [], "r2": []}
        for kind, who, arg in steps:
            if kind == "append":
                op = stock_op(who, arg) if arg >= 0 else entity_op(who, arg)
                entry = log.append(op)
                for queue in pending.values():
                    queue.append(entry)
            elif kind in ("adopt", "drop"):
                queue = pending[HOLDERS[who]]
                if queue:
                    lsn, payload = queue.pop(arg % len(queue))
                    if kind == "adopt":
                        log.adopt(HOLDERS[who], lsn, payload)
            elif kind == "tear":
                log.tear(arg)
            elif kind == "compact":
                log.compact(HOLDERS[who])
            elif kind == "rebuild":
                log.rebuild([HOLDERS[who]], log.union())
            elif kind == "repair":
                log.rebuild([HOLDERS[who]], log.entries("own"), source="own")
            for name in HOLDERS:
                assert log.root(name) == merkle_root(log.entries(name))


def _append_all(wal, payloads, corrupt_at=None):
    """Append ``payloads``; the one at index ``corrupt_at`` is damaged in
    place by an injected ``corrupt`` fault."""
    corrupt = FaultInjector(FaultPlan(rules=[
        FaultRule(site="wal.append", kind="corrupt", rate=1.0),
    ]))
    for i, payload in enumerate(payloads):
        wal.faults = corrupt if i == corrupt_at else None
        wal.append(payload)
    wal.faults = None


wal_payloads = st.lists(st.binary(min_size=1, max_size=12), max_size=20)


class TestIncrementalScan:
    @settings(max_examples=80, deadline=None)
    @given(
        first=wal_payloads,
        second=wal_payloads,
        corrupt_at=st.one_of(st.none(), st.integers(0, 19)),
        torn=st.integers(0, 60),
    )
    def test_scan_resumes_and_stops_where_recovery_stops(
        self, first, second, corrupt_at, torn
    ):
        wal = WriteAheadLog()
        _append_all(wal, first)
        head, _, offset = wal.scan_from(0)
        assert offset == len(wal)
        _append_all(wal, second, corrupt_at)
        tail, last, _ = wal.scan_from(offset)
        assert head + tail == wal.recover_prefix()[0]
        assert last == (tail[-1].lsn if tail else 0)
        if corrupt_at is None or corrupt_at >= len(second):
            assert len(tail) == len(second)
        else:
            assert len(tail) == corrupt_at  # stopped at the damaged record
        # A torn tail starts a new generation: rescan, then resume again.
        wal.corrupt_tail(torn)
        entries, _, offset = wal.scan_from(0)
        assert entries == wal.recover_prefix()[0]
        wal.append(b"after")
        tail, _, _ = wal.scan_from(offset)
        assert entries + tail == wal.recover_prefix()[0]

    def test_generation_moves_only_when_written_bytes_change(self):
        wal = WriteAheadLog()
        seen = [wal.generation]

        def moved() -> bool:
            seen.append(wal.generation)
            return seen[-1] != seen[-2]

        wal.append(b"a")
        wal.append_at(7, b"b")
        assert not moved()
        wal.corrupt_tail(2)
        assert moved()
        wal.append(b"c")  # trims the torn bytes, but appends only
        wal.append_at(9, b"d")
        assert not moved()
        wal.truncate_before(8)
        assert moved()
        wal.rebuild(wal.recover_prefix()[0])
        assert moved()
        assert [e.lsn for e in wal.recover_prefix()[0]] == [8, 9]


# -- property: tier round trips are bitwise -----------------------------------


class TestTieredEngine:
    @settings(max_examples=40, deadline=None)
    @given(key=keys, value=values)
    def test_demote_promote_roundtrip_bitwise(self, key, value):
        engine = TieredStorageEngine(
            policy=LifecyclePolicy(hot_ttl_s=1.0, warm_ttl_s=2.0)
        )
        engine.put(key, value)
        canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
        engine.clock.advance(10.0)
        report = engine.maintain()
        assert report["demoted"] == 1
        assert engine.describe()["cold"] == 1
        promoted = engine.get(key)  # cold hit promotes transparently
        assert promoted == value
        assert (
            json.dumps(promoted, sort_keys=True, separators=(",", ":"))
            == canonical
        )
        assert engine.describe()["cold"] == 0

    def test_scan_merges_cold_without_promoting(self):
        engine = TieredStorageEngine(
            policy=LifecyclePolicy(hot_ttl_s=1.0, warm_ttl_s=2.0)
        )
        engine.put("a", {"v": 1})
        engine.clock.advance(10.0)
        engine.maintain()
        engine.put("b", {"v": 2})
        assert engine.scan("", "￿") == [("a", {"v": 1}), ("b", {"v": 2})]
        assert engine.describe()["cold"] == 1  # scan did not promote
        assert engine.keys() == ["a", "b"]

    def test_overwrite_and_delete_clear_cold_copies(self):
        engine = TieredStorageEngine(
            policy=LifecyclePolicy(hot_ttl_s=1.0, warm_ttl_s=2.0)
        )
        engine.put("a", 1)
        engine.put("b", 2)
        engine.clock.advance(10.0)
        engine.maintain()
        engine.put("a", 3)  # overwrite un-demotes
        engine.delete("b")
        assert engine.get("a") == 3
        with pytest.raises(KeyNotFoundError):
            engine.get("b")
        assert engine.describe()["cold"] == 0

    def test_recover_restores_all_tiers(self):
        engine = TieredStorageEngine(
            policy=LifecyclePolicy(
                hot_ttl_s=1.0, warm_ttl_s=2.0, checkpoint_interval_ops=4
            )
        )
        engine.put("cold-key", {"v": "cold"})
        engine.clock.advance(10.0)
        engine.maintain()  # demotes cold-key, checkpoints the WAL
        for i in range(6):
            engine.put(f"warm-{i}", {"v": i})
        engine.recover()  # crash-restart in place
        assert engine.get("cold-key") == {"v": "cold"}
        for i in range(6):
            assert engine.get(f"warm-{i}") == {"v": i}

    def test_hot_capacity_lru_eviction(self):
        engine = TieredStorageEngine(policy=LifecyclePolicy(hot_capacity=2))
        for i in range(4):
            engine.put(f"k{i}", i)
        assert engine.describe()["hot"] == 2
        assert engine.get("k0") == 0  # still warm — a cache miss, not a loss

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            LifecyclePolicy(hot_capacity=0).validate()
        with pytest.raises(ConfigurationError):
            LifecyclePolicy(hot_ttl_s=5.0, warm_ttl_s=1.0).validate()
        with pytest.raises(ConfigurationError):
            LifecyclePolicy(checkpoint_interval_ops=0).validate()


# -- the WAL truncation-floor bugfix ------------------------------------------


class TestTruncationFloor:
    def test_last_valid_lsn_survives_empty_body(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append(f"op{i}".encode())
        wal.truncate_before(6)  # checkpoint covered everything
        assert wal.entry_count == 0
        assert wal.last_valid_lsn == 5  # not 0: prefix is in the snapshot
        assert wal.truncated_lsn == 5

    def test_append_after_torn_tail_with_truncated_prefix(self):
        """The satellite bugfix: torn-tail trim + truncated prefix must
        not restart LSN accounting at 0."""
        wal = WriteAheadLog()
        for i in range(5):
            wal.append(f"op{i}".encode())
        wal.truncate_before(5)  # log now starts at LSN 5
        wal.corrupt_tail(3)  # tear the only remaining entry
        assert wal.last_valid_lsn == 4  # floor holds with a torn body
        lsn = wal.append(b"after")
        assert lsn == 6  # next_lsn never regressed
        entries, last = wal.recover_prefix()
        assert [e.lsn for e in entries] == [6]
        assert last == 6

    def test_replay_return_value_is_floored(self):
        wal = WriteAheadLog()
        for i in range(3):
            wal.append(f"op{i}".encode())
        wal.truncate_before(4)
        gen = wal.replay()
        assert list(gen) == []
        # The generator's return value carries the high-water mark.
        wal2 = WriteAheadLog()
        for i in range(3):
            wal2.append(f"op{i}".encode())
        wal2.truncate_before(4)
        it = wal2.replay()
        try:
            while True:
                next(it)
        except StopIteration as stop:
            assert stop.value == 3

    def test_truncate_keeps_suffix_verbatim(self):
        wal = WriteAheadLog()
        for i in range(6):
            wal.append(f"op{i}".encode())
        wal.truncate_before(4)
        entries, last = wal.recover_prefix()
        assert [e.lsn for e in entries] == [4, 5, 6]
        assert [e.payload for e in entries] == [b"op3", b"op4", b"op5"]
        assert last == 6
        assert wal.truncated_lsn == 3


# -- object-store retention ---------------------------------------------------


class TestPruneVersions:
    def test_prune_keeps_newest_and_version_numbers(self):
        store = ObjectStore()
        for i in range(5):
            store.put("obj", f"v{i}".encode())
        assert store.prune_versions("obj", keep=2) == 3
        refs = store.versions("obj")
        assert [r.version for r in refs] == [4, 5]
        assert store.get("obj", version=4) == b"v3"
        with pytest.raises(KeyNotFoundError):
            store.get("obj", version=1)

    def test_put_after_prune_does_not_collide(self):
        store = ObjectStore()
        for i in range(3):
            store.put("obj", f"v{i}".encode())
        store.prune_versions("obj", keep=1)
        ref = store.put("obj", b"new")
        assert ref.version == 4  # continues numbering, no reuse
        assert store.get("obj", version=4) == b"new"

    def test_pruned_blobs_are_garbage_collected(self):
        store = ObjectStore()
        store.put("obj", b"unique-payload-one")
        store.put("obj", b"unique-payload-two")
        before = store.physical_bytes()
        store.prune_versions("obj", keep=1)
        assert store.physical_bytes() < before

    def test_prune_validation(self):
        store = ObjectStore()
        with pytest.raises(KeyNotFoundError):
            store.prune_versions("missing", keep=1)
        store.put("obj", b"x")
        with pytest.raises(StorageError):
            store.prune_versions("obj", keep=0)
        assert store.prune_versions("obj", keep=5) == 0
