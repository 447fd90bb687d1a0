"""Pluggable storage engines: the compute/storage split of Fig. 7 (Sec. IV-E2).

The paper's architectural answer to the data deluge is a *disaggregated*
stack: stateless compute elastically scaled over a shared storage/memory
tier.  Before this module the :class:`~repro.platform.platform.
MetaversePlatform` constructed and privately owned its stores, so compute
and data could only scale together.  :class:`StorageEngine` is the seam
that separates them — the full operation surface a platform needs from its
storage tier (entity KV ops, committed-product records, content-addressed
objects) behind one interface with two implementations:

* :class:`LocalStorageEngine` — today's in-process tier (LSM KV store +
  WAL, object store, plain product map).  The byte-identical default: a
  platform built without an engine argument behaves exactly as before.
* :class:`RemoteStorageEngine` — a compute-side client that speaks to
  standalone :class:`StorageNode` processes over a
  :class:`~repro.net.simnet.SimulatedNetwork`: every operation pays
  round-trip link latency on the simulated clock, respects partitions,
  and consults the fault injector at the new ``storage.rpc`` site
  (crash / delay / drop-as-timeout).  Optional retry and circuit-breaker
  policies guard the link; per-engine counters, latency histograms, and
  ``storage.rpc`` trace spans make the tier observable.

A :class:`StorageTier` groups M storage nodes under a consistent-hash
(vnode) ring so N compute nodes can mount the same tier with N ≠ M —
the topology experiment E26 (``bench_disaggregated_scaleout.py``)
scales.  Because state lives in the tier, a compute node is *stateless*:
cluster membership changes become pure ring remaps (zero entity
migration) and a crashed compute node recovers by re-mounting the
surviving storage nodes instead of replaying a WAL.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable

from ..core.clock import EventScheduler, SimulationClock
from ..core.errors import (
    CircuitOpenError,
    ConfigurationError,
    FaultInjectedError,
    KeyNotFoundError,
    PartitionedError,
)
from ..core.metrics import MetricsRegistry
from ..net.overlay import ChordRing
from ..net.simnet import Link, SimulatedNetwork
from ..obs.tracing import NoopTracer, Tracer
from .kv import KVStore
from .objectstore import ObjectRef, ObjectStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultInjector
    from ..resilience.policies import CircuitBreaker, RetryPolicy

#: Separator between a storage-node name and its vnode index on the ring.
_VNODE_SEP = "#"


def _approx_size(value: object) -> int:
    """Payload size estimate for RPC serialization-delay accounting."""
    try:
        return len(json.dumps(value))
    except (TypeError, ValueError):
        return len(repr(value))


class StorageEngine(ABC):
    """The operation surface a platform needs from its storage tier.

    Three key families, mirroring Fig. 7's storage boxes: *entities* (hot
    structured state, the KV tier), *products* (committed marketplace
    post-states the compute tier's MVCC cache hydrates from), and
    *objects* (content-addressed blobs).  Implementations must keep
    entity scans sorted by key and raise
    :class:`~repro.core.errors.KeyNotFoundError` for missing entities.
    """

    #: Implementation tag exported in gauges and describe().
    kind: str = "abstract"

    # -- entities (KV tier) -------------------------------------------------

    @abstractmethod
    def get(self, key: str) -> object: ...

    @abstractmethod
    def put(self, key: str, value: object) -> None: ...

    @abstractmethod
    def delete(self, key: str) -> None: ...

    @abstractmethod
    def scan(self, lo: str, hi: str | None) -> list[tuple[str, object]]:
        """Live entities with ``lo <= key <= hi``, sorted; ``hi=None``
        leaves the range open above."""

    def keys(self) -> list[str]:
        return [key for key, _ in self.scan("", None)]

    def key_count(self) -> int:
        """How many entities the engine holds (what gauges report)."""
        return len(self.keys())

    # -- bulk entity ops (the tick-coalesced hot path) ----------------------
    #
    # One tick's worth of gets/puts moves as a single call: in-process
    # engines loop (free), but a remote engine coalesces every key owned
    # by the same storage node into ONE round trip, cutting simulated RPC
    # count from O(keys) to O(nodes) per tick (experiment E27).

    def mget(self, keys: Iterable[str]) -> dict[str, object]:
        """Values for every *present* key in ``keys`` (absent keys are
        simply omitted — bulk readers filter, they don't except)."""
        out: dict[str, object] = {}
        for key in keys:
            try:
                out[key] = self.get(key)
            except KeyNotFoundError:
                continue
        return out

    def mput(self, items: "list[tuple[str, object]]") -> None:
        """Store every (key, value) pair; later duplicates win, exactly
        as the equivalent sequence of :meth:`put` calls would."""
        for key, value in items:
            self.put(key, value)

    # -- committed product records ------------------------------------------

    @abstractmethod
    def put_product(self, product_id: str, value: dict) -> None: ...

    @abstractmethod
    def get_product(self, product_id: str) -> dict | None: ...

    @abstractmethod
    def delete_product(self, product_id: str) -> None: ...

    @abstractmethod
    def products(self) -> dict[str, dict]: ...

    # -- objects (blob tier) ------------------------------------------------

    @abstractmethod
    def put_object(
        self, name: str, data: bytes, metadata: dict[str, str] | None = None
    ) -> ObjectRef: ...

    @abstractmethod
    def get_object(self, name: str, version: int | None = None) -> bytes: ...

    # -- lifecycle -----------------------------------------------------------

    def maintain(self, now: float | None = None) -> dict:
        """One data-lifecycle sweep (checkpointing, tier demotion).

        No-op by default; :class:`~repro.storage.lifecycle.
        TieredStorageEngine` overrides it.  The platform and cluster tick
        loops call this unconditionally, so any engine can opt into
        lifecycle work without new wiring.
        """
        return {}

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict:
        return {"kind": self.kind, "entities": self.key_count()}


class LocalStorageEngine(StorageEngine):
    """The in-process storage tier: LSM KV store (+WAL), objects, products.

    This is exactly the tier a pre-split platform owned privately, so a
    platform built with a default engine is byte-identical to one built
    before the seam existed.  Product records live in a plain dict — on a
    single node they shadow the MVCC catalog and only matter as the
    hydration source once the engine is mounted remotely.
    """

    kind = "local"

    def __init__(
        self,
        memtable_budget_bytes: int = 64 * 1024,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        self.kv = KVStore(
            memtable_budget_bytes=memtable_budget_bytes,
            metrics=self.metrics,
            tracer=self.tracer,
            faults=faults,
        )
        self.objects = ObjectStore(metrics=self.metrics, tracer=self.tracer)
        self._products: dict[str, dict] = {}

    # -- entities -----------------------------------------------------------

    def get(self, key: str) -> object:
        return self.kv.get(key)

    def put(self, key: str, value: object) -> None:
        self.kv.put(key, value)

    def mput(self, items: "Iterable[tuple[str, object]]") -> None:
        # Group commit: one WAL entry and one memtable merge for the batch.
        self.kv.mput(list(items))

    def delete(self, key: str) -> None:
        self.kv.delete(key)

    def scan(self, lo: str, hi: str | None) -> list[tuple[str, object]]:
        return list(self.kv.scan(lo, hi))

    def keys(self) -> list[str]:
        return self.kv.keys()

    def key_count(self) -> int:
        return len(self.kv)

    # -- products -----------------------------------------------------------

    def put_product(self, product_id: str, value: dict) -> None:
        self._products[product_id] = dict(value)

    def get_product(self, product_id: str) -> dict | None:
        value = self._products.get(product_id)
        return dict(value) if value is not None else None

    def delete_product(self, product_id: str) -> None:
        self._products.pop(product_id, None)

    def products(self) -> dict[str, dict]:
        return {pid: dict(value) for pid, value in self._products.items()}

    # -- objects ------------------------------------------------------------

    def put_object(
        self, name: str, data: bytes, metadata: dict[str, str] | None = None
    ) -> ObjectRef:
        return self.objects.put(name, data, metadata)

    def get_object(self, name: str, version: int | None = None) -> bytes:
        return self.objects.get(name, version)


class StorageNode:
    """One standalone storage server: a named :class:`LocalStorageEngine`
    endpoint on the tier's network.

    Nodes are deliberately dumb — routing, retries, and fault handling are
    the client's job (the classic disaggregated split: smart client,
    simple shared storage).  Per-node counters
    (``storage.node.<name>.ops``) expose the load each node absorbs.
    """

    def __init__(
        self,
        name: str,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        engine_factory=None,
    ) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        # ``engine_factory(metrics, tracer)`` lets a tier run lifecycle-
        # managed nodes (e.g. TieredStorageEngine) without this module
        # depending on the lifecycle layer.
        self.engine = (
            engine_factory(self.metrics, self.tracer)
            if engine_factory is not None
            else LocalStorageEngine(metrics=self.metrics, tracer=self.tracer)
        )
        self.ops = 0

    def execute(self, op: str, *args):
        """Run one storage operation locally (the RPC server side)."""
        self.ops += 1
        self.metrics.counter(f"storage.node.{self.name}.ops").inc()
        return getattr(self.engine, op)(*args)


class StorageTier:
    """M storage nodes behind a consistent-hash ring, mountable by any
    number of compute nodes.

    The ring (vnode-balanced, same construction as the cluster's
    :class:`~repro.cluster.router.ShardRouter`) maps every entity key,
    product id, and object name to its owning node *independently of
    compute membership* — which is precisely what makes compute remaps
    free.  The tier's :class:`~repro.net.simnet.SimulatedNetwork` models
    the compute↔storage links: per-op latency, partitions, and
    bandwidth-proportional serialization delay.
    """

    def __init__(
        self,
        n_nodes: int = 2,
        node_names: Iterable[str] | None = None,
        vnodes: int = 32,
        clock: SimulationClock | None = None,
        link: Link | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        engine_factory=None,
    ) -> None:
        names = list(node_names) if node_names is not None else [
            f"storage-{i}" for i in range(n_nodes)
        ]
        if not names:
            raise ConfigurationError("storage tier needs at least one node")
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate storage node names")
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.clock = clock if clock is not None else SimulationClock()
        self.scheduler = EventScheduler(self.clock)
        self.net = SimulatedNetwork(
            self.scheduler,
            default_link=link if link is not None else Link(),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.vnodes = vnodes
        self.ring = ChordRing()
        self.nodes: dict[str, StorageNode] = {}
        for name in names:
            if _VNODE_SEP in name:
                raise ConfigurationError(
                    f"storage node name {name!r} may not contain {_VNODE_SEP!r}"
                )
            self.nodes[name] = StorageNode(
                name, metrics=self.metrics, tracer=self.tracer,
                engine_factory=engine_factory,
            )
            self.net.add_node(name)
            for i in range(vnodes):
                self.ring.join(f"{name}{_VNODE_SEP}{i}")
        self._mounts = 0
        # Key -> node-name routing cache.  Tier membership is fixed at
        # construction, so entries never invalidate; the cap only bounds
        # memory under adversarial key churn.  Saves a sha256 + bisect
        # per RPC — measurable on the coalesced batch path, dominant on
        # the per-key one.
        self._owner_cache: dict[str, str] = {}
        self._owner_cache_cap = 1 << 20
        self.metrics.gauge("storage.tier.nodes").set(float(len(self.nodes)))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def node_names(self) -> list[str]:
        return list(self.nodes)

    def node_of(self, key: str) -> StorageNode:
        """The storage node owning ``key`` (compute-membership-independent)."""
        name = self._owner_cache.get(key)
        if name is None:
            name = self.ring.owner_of(key).split(_VNODE_SEP, 1)[0]
            if len(self._owner_cache) >= self._owner_cache_cap:
                self._owner_cache.clear()
            self._owner_cache[key] = name
        return self.nodes[name]

    def group_by_node(self, keys: Iterable[str]) -> "dict[StorageNode, list[str]]":
        """Partition ``keys`` by owning node (input order preserved,
        nodes in first-appearance order) — the coalescing primitive."""
        grouped: dict[StorageNode, list[str]] = {}
        for key in keys:
            grouped.setdefault(self.node_of(key), []).append(key)
        return grouped

    def mget(self, keys: Iterable[str]) -> dict[str, object]:
        """Server-side bulk read across nodes (audits and invariants;
        clients go through :meth:`RemoteStorageEngine.mget` to pay the
        simulated round trips)."""
        merged: dict[str, object] = {}
        for node, node_keys in self.group_by_node(keys).items():
            merged.update(node.execute("mget", node_keys))
        return merged

    def mput(self, items: "list[tuple[str, object]]") -> None:
        """Server-side bulk write across nodes (mirror of :meth:`mget`)."""
        grouped: dict[StorageNode, list[tuple[str, object]]] = {}
        for key, value in items:
            grouped.setdefault(self.node_of(key), []).append((key, value))
        for node, node_items in grouped.items():
            node.execute("mput", node_items)

    def mount(
        self,
        client: str | None = None,
        faults: "FaultInjector | None" = None,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        rpc_timeout_s: float = 0.05,
    ) -> "RemoteStorageEngine":
        """Attach a new compute-side client and return its engine.

        Every mount gets a unique endpoint name, so a re-mounted compute
        node is a *new* network identity — exactly how a restarted
        process rejoins a real fabric.
        """
        self._mounts += 1
        name = f"compute/{client or 'node'}@{self._mounts}"
        return RemoteStorageEngine(
            self,
            client=name,
            faults=faults,
            retry=retry,
            breaker=breaker,
            rpc_timeout_s=rpc_timeout_s,
        )

    def keys(self) -> list[str]:
        """Every entity key held anywhere in the tier (introspection —
        benchmarks and invariant tests audit the tier directly)."""
        merged: set[str] = set()
        for node in self.nodes.values():
            merged.update(node.engine.keys())
        return sorted(merged)

    def maintain(self, now: float | None = None) -> dict[str, dict]:
        """Run one lifecycle sweep on every storage node's engine.

        Server-side maintenance: checkpointing and tier demotion happen
        where the data lives, not on the compute clients.  Returns each
        node's sweep summary.
        """
        now = self.clock.now if now is None else now
        return {
            name: node.engine.maintain(now) for name, node in self.nodes.items()
        }

    def refresh_gauges(self) -> None:
        for name, node in self.nodes.items():
            self.metrics.gauge(f"storage.node.{name}.entities").set(
                float(node.engine.key_count())
            )
            self.metrics.gauge(f"storage.node.{name}.ops_total").set(
                float(node.ops)
            )

    def describe(self) -> dict:
        return {
            "nodes": self.node_names,
            "vnodes": self.vnodes,
            "mounts": self._mounts,
            "entities": len(self.keys()),
        }


class RemoteStorageEngine(StorageEngine):
    """Compute-side client of a :class:`StorageTier`.

    Each operation routes its key through the tier ring to the owning
    node and pays a synchronous round trip on the simulated clock:
    request serialization + propagation out, response back, plus any
    injected extra latency.  The ``storage.rpc`` fault site models the
    disaggregation tax in failure form — ``crash`` (the RPC errors),
    ``delay`` (slow link), and ``drop`` (the request vanishes; the client
    burns its ``rpc_timeout_s`` budget before surfacing the failure) —
    all raised as retryable
    :class:`~repro.core.errors.FaultInjectedError`, so the platform's
    existing retry policy recovers transient storage faults and an
    optional :class:`~repro.resilience.policies.CircuitBreaker` sheds
    load from a persistently failing tier.
    """

    kind = "remote"

    def __init__(
        self,
        tier: StorageTier,
        client: str = "compute/node@0",
        faults: "FaultInjector | None" = None,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        rpc_timeout_s: float = 0.05,
    ) -> None:
        if rpc_timeout_s <= 0:
            raise ConfigurationError("rpc_timeout_s must be positive")
        self.tier = tier
        self.client = client
        self.metrics = tier.metrics
        self.tracer = tier.tracer
        self.faults = faults
        self.retry = retry
        self.breaker = breaker
        self.rpc_timeout_s = rpc_timeout_s
        if client not in tier.net.nodes:
            tier.net.add_node(client)
        self.rpcs = 0

    # -- the RPC core -------------------------------------------------------

    def _rpc(self, node: StorageNode, op: str, request_size: int, *args):
        if self.retry is not None:
            return self.retry.call(lambda: self._rpc_once(node, op, request_size, *args))
        return self._rpc_once(node, op, request_size, *args)

    def _rpc_once(self, node: StorageNode, op: str, request_size: int, *args):
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpenError(
                f"storage link breaker open for {self.client}"
            )
        try:
            result = self._transact(node, op, request_size, *args)
        except FaultInjectedError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return result

    def _transact(self, node: StorageNode, op: str, request_size: int, *args):
        clock = self.tier.clock
        net = self.tier.net
        if net.is_partitioned(self.client, node.name):
            self.metrics.counter("storage.rpc.partitioned").inc()
            raise PartitionedError(
                f"{self.client} -> {node.name} is partitioned"
            )
        extra_delay = 0.0
        if self.faults is not None:
            decision = self.faults.decide(
                "storage.rpc",
                target=f"{self.client}->{node.name}",
                kinds=("crash", "delay", "drop"),
            )
            if decision.kind == "crash":
                self.metrics.counter("storage.rpc.faults").inc()
                raise FaultInjectedError(
                    f"injected crash at storage.rpc ({op} -> {node.name})"
                )
            if decision.kind == "drop":
                # A lost request looks like a timeout from the client side:
                # the full budget burns before the failure surfaces.
                clock.advance(self.rpc_timeout_s)
                self.metrics.counter("storage.rpc.faults").inc()
                self.metrics.counter("storage.rpc.timeouts").inc()
                raise FaultInjectedError(
                    f"storage.rpc timed out after {self.rpc_timeout_s}s "
                    f"({op} -> {node.name}: request dropped)"
                )
            if decision.kind == "delay":
                extra_delay = decision.delay_s
        link = net.link_for(self.client, node.name)
        started = clock.now
        with self.tracer.span("storage.rpc", op=op, node=node.name):
            clock.advance(link.transfer_delay(request_size) + extra_delay)
            result = node.execute(op, *args)
            clock.advance(link.transfer_delay(max(1, _approx_size(result))))
        self.rpcs += 1
        self.metrics.counter("storage.rpc.calls").inc()
        self.metrics.counter("storage.rpc.bytes").inc(request_size)
        self.metrics.histogram("storage.rpc.latency_s").observe(
            clock.now - started
        )
        return result

    def _fan_out(self, op: str, request_size: int, *args) -> list:
        """Run ``op`` against every node (scans have no single owner)."""
        return [
            self._rpc(node, op, request_size, *args)
            for node in self.tier.nodes.values()
        ]

    # -- entities -----------------------------------------------------------

    def get(self, key: str) -> object:
        return self._rpc(self.tier.node_of(key), "get", len(key), key)

    def put(self, key: str, value: object) -> None:
        self._rpc(
            self.tier.node_of(key), "put",
            len(key) + _approx_size(value), key, value,
        )

    def delete(self, key: str) -> None:
        self._rpc(self.tier.node_of(key), "delete", len(key), key)

    def scan(self, lo: str, hi: str | None) -> list[tuple[str, object]]:
        # An open upper bound travels as a one-byte marker.
        request_size = len(lo) + (1 if hi is None else len(hi))
        merged: list[tuple[str, object]] = []
        for part in self._fan_out("scan", request_size, lo, hi):
            merged.extend(part)
        merged.sort(key=lambda kv: kv[0])
        return merged

    # -- coalesced bulk ops -------------------------------------------------
    #
    # The disaggregation tax is per-round-trip, not per-key: a tick's
    # worth of keys owned by the same storage node travels as ONE RPC
    # (``mget``/``mput`` on the node side), so per-tick round trips are
    # O(storage nodes) instead of O(keys).  Fault semantics are
    # batch-grained by construction — the injector is consulted once per
    # round trip in _transact, so a dropped batch burns one timeout and
    # fails (and retries) as a unit.

    def mget(self, keys: Iterable[str]) -> dict[str, object]:
        merged: dict[str, object] = {}
        for node, node_keys in self.tier.group_by_node(keys).items():
            merged.update(
                self._rpc(
                    node, "mget",
                    sum(len(key) for key in node_keys), node_keys,
                )
            )
        return merged

    def mput(self, items: "list[tuple[str, object]]") -> None:
        grouped: dict[StorageNode, list[tuple[str, object]]] = {}
        for key, value in items:
            grouped.setdefault(self.tier.node_of(key), []).append((key, value))
        for node, node_items in grouped.items():
            request_size = sum(
                len(key) for key, _ in node_items
            ) + _approx_size([value for _, value in node_items])
            self._rpc(node, "mput", request_size, node_items)

    # -- products -----------------------------------------------------------

    def put_product(self, product_id: str, value: dict) -> None:
        self._rpc(
            self.tier.node_of(product_id), "put_product",
            len(product_id) + _approx_size(value), product_id, value,
        )

    def get_product(self, product_id: str) -> dict | None:
        return self._rpc(
            self.tier.node_of(product_id), "get_product",
            len(product_id), product_id,
        )

    def delete_product(self, product_id: str) -> None:
        self._rpc(
            self.tier.node_of(product_id), "delete_product",
            len(product_id), product_id,
        )

    def products(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        for part in self._fan_out("products", 1):
            merged.update(part)
        return merged

    # -- objects ------------------------------------------------------------

    def put_object(
        self, name: str, data: bytes, metadata: dict[str, str] | None = None
    ) -> ObjectRef:
        return self._rpc(
            self.tier.node_of(name), "put_object",
            len(name) + len(data), name, data, metadata,
        )

    def get_object(self, name: str, version: int | None = None) -> bytes:
        return self._rpc(
            self.tier.node_of(name), "get_object", len(name), name, version
        )

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "client": self.client,
            "tier": self.tier.describe(),
            "rpcs": self.rpcs,
        }
