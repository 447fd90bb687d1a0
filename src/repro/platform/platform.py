"""The device–cloud–storage platform facade (paper Fig. 7).

:class:`MetaversePlatform` wires the three tiers of the disaggregated
architecture:

* **device** — :class:`~repro.platform.gateway.DeviceGateway` instances
  doing optional on-device aggregation;
* **cloud** — transaction executors (MVCC, partitioned by product hash),
  the pub/sub broker, and a buffer pool in front of storage;
* **storage** — a pluggable :class:`~repro.storage.engine.StorageEngine`:
  in-process by default (KV store + object store, exactly the pre-split
  tier), or a :class:`~repro.storage.engine.RemoteStorageEngine` mounted
  on a shared :class:`~repro.storage.engine.StorageTier`, which makes the
  compute node stateless (Sec. IV-E2's disaggregated deployment).

It exposes the operations the Section-II scenarios need: sensor ingestion,
flash-sale purchasing with space-aware priority, pub/sub subscriptions,
and point reads through the buffer pool.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..api.dataplane import ContinuousQuery, GatherResult
from ..core.clock import SimulationClock
from ..core.columns import RecordBatch
from ..core.errors import (
    ConfigurationError,
    FaultInjectedError,
    KeyNotFoundError,
    WriteConflictError,
)
from ..core.metrics import MetricsRegistry
from ..core.records import DataKind, DataRecord, Space
from ..net.overlay import stable_hash
from ..net.pubsub import Broker, Publication, Subscription
from ..obs.tracing import NoopTracer, Tracer
from ..platform.gateway import DeviceGateway
from ..query.plane import QueryExecutor, QueryRequest, prefix_query, spatial_query
from ..resilience.degrade import DegradationController
from ..resilience.faults import FaultInjector
from ..resilience.policies import CircuitBreaker, RetryPolicy
from ..semantic import SemanticIndex, SemanticIndexConfig
from ..storage.bufferpool import BufferPool, PageMeta
from ..storage.engine import LocalStorageEngine, StorageEngine
from ..txn.mvcc import TransactionManager
from ..workloads.marketplace import PurchaseRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spatial.geometry import BBox


@dataclass
class PurchaseOutcome:
    request: PurchaseRequest
    success: bool
    reason: str = ""


@dataclass
class ExecutorStats:
    """Per-executor accounting for throughput/makespan analysis."""

    processed: int = 0
    busy_time: float = 0.0


def stored_record_value(record: DataRecord) -> dict:
    """The wrapper dict a :class:`DataRecord` is stored under in the KV
    tier.  Shared with the cluster failover layer, which must log exactly
    what :meth:`MetaversePlatform.write_record` persists so a promoted
    replica replays identical state."""
    return {
        "payload": record.payload,
        "space": record.space.value,
        "timestamp": record.timestamp,
    }


def purchase_sort_key(request: PurchaseRequest, physical_priority: bool):
    """Space-aware processing order: (priority, arrival time).

    With ``physical_priority`` on, physical-space shoppers win ties on the
    last unit — the paper's example policy.  Shared with
    :class:`~repro.cluster.cluster.PlatformCluster`, which must order the
    global request stream identically before splitting it across shards so
    that sharded and single-node runs decide every purchase the same way.
    """
    priority = 0 if (physical_priority and request.space is Space.PHYSICAL) else 1
    return (priority, request.timestamp)


class MetaversePlatform:
    """The end-to-end platform facade."""

    def __init__(
        self,
        n_executors: int = 4,
        buffer_pool_pages: int = 256,
        physical_priority: bool = True,
        txn_cost_s: float = 1e-4,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        degradation: DegradationController | None = None,
        engine: StorageEngine | None = None,
        semantic_index: SemanticIndexConfig | bool = False,
    ) -> None:
        if n_executors < 1:
            raise ConfigurationError("need at least one executor")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        # Resilience.  A platform built with a fault injector survives by
        # default: storage and broker calls retry with backoff, a breaker
        # sheds publishes while the broker is failing, and reads fall back
        # to the last value served (see read()).  All defaults share the
        # injector's simulated clock so recovery timing is deterministic.
        self.faults = faults
        if faults is not None:
            # Adopt an injector that kept its defaults, so fault counters
            # and fault spans land in the platform's registry and trace.
            if not faults.metrics_injected:
                faults.metrics = self.metrics
            if not faults.tracer_injected:
                faults.tracer = self.tracer
        if retry is None and faults is not None:
            retry = RetryPolicy(
                max_attempts=4, base_delay_s=0.002, seed=faults.plan.seed,
                clock=faults.clock, metrics=self.metrics, tracer=self.tracer,
            )
        self.retry = retry
        if breaker is None and faults is not None:
            breaker = CircuitBreaker(
                failure_threshold=8, cooldown_s=0.25, clock=faults.clock,
                name="broker", metrics=self.metrics, tracer=self.tracer,
            )
        self.breaker = breaker
        self.degradation = degradation
        # Storage tier: an injected engine, or the in-process default
        # (byte-identical to the pre-split platform that newed up its own
        # stores).  ``kv``/``objects`` stay addressable for local engines;
        # a remote engine has no in-process stores to expose.
        if engine is None:
            engine = LocalStorageEngine(
                metrics=self.metrics, tracer=self.tracer, faults=faults
            )
        self.engine = engine
        self.kv = engine.kv if isinstance(engine, LocalStorageEngine) else None
        self.objects = (
            engine.objects if isinstance(engine, LocalStorageEngine) else None
        )
        # Cloud tier.  The transaction manager shares the platform registry
        # and tracer (it used to grow a private registry nobody could read).
        self.txn = TransactionManager(metrics=self.metrics, tracer=self.tracer)
        self.broker = Broker(metrics=self.metrics, tracer=self.tracer, faults=faults)
        self.n_executors = n_executors
        self.executors = [ExecutorStats() for _ in range(n_executors)]
        self.txn_cost_s = txn_cost_s
        self.physical_priority = physical_priority
        self._buffer_pool_pages = buffer_pool_pages
        self.pool = BufferPool(
            capacity=buffer_pool_pages,
            loader=self._load_page,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.storage_reads = 0
        # Bounded last-known-value cache backing stale-read fallback.
        self._stale: OrderedDict[str, object] = OrderedDict()
        self._stale_capacity = 4 * buffer_pool_pages
        # Device tier (gateways registered per source population).
        self.gateways: dict[str, DeviceGateway] = {}
        # Optional (product_id, post_commit_stock) hook fired after every
        # committed stock change.  The cluster failover layer sets this to
        # replicate absolute stock levels; replaying levels (not requests)
        # is what keeps promotion exactly-once.
        self.purchase_log = None
        # Product records whose engine write-through failed past the retry
        # budget; re-flushed before the next persist so the storage tier
        # converges once the fault clears.
        self._dirty_products: OrderedDict[str, dict | None] = OrderedDict()
        # DataPlane surface: tick-driven buffered ingest and continuous
        # queries, mirroring the cluster facade so workloads written
        # against the protocol run unchanged on either shape.
        self.clock = faults.clock if faults is not None else SimulationClock()
        self._pending: list[DataRecord] = []
        self._pending_batches: list[RecordBatch] = []
        self._continuous: dict[str, ContinuousQuery] = {}
        # key → (x, y) memo over this engine's entities, so spatial
        # queries filter a dict instead of scanning the whole keyspace.
        # Only sound on the private local engine (it starts empty and
        # every write flows through this platform); a remote engine
        # shares its keyspace with other compute nodes, so spatial
        # queries there fall back to the scan-based filter.
        self._positions: dict[str, tuple] | None = (
            {} if isinstance(engine, LocalStorageEngine) else None
        )
        # Opt-in semantic retrieval: an HNSW graph over this node's
        # describable entities, maintained from the same write paths as
        # the position memo (so failover promotion, which replays via
        # import_entity, rebuilds it for free).  Off by default — the
        # numeric hot-path workloads never pay the embedding cost.
        self.semantic: SemanticIndex | None = None
        if semantic_index:
            self.semantic = SemanticIndex(
                semantic_index
                if isinstance(semantic_index, SemanticIndexConfig)
                else None
            )
        # Query-plane executor: this platform is the single shard.
        self.query_executor = QueryExecutor()

    # -- storage access -----------------------------------------------------

    def _load_page(self, key) -> tuple[object, PageMeta]:
        self.storage_reads += 1
        try:
            value = self.engine.get(str(key))
        except KeyNotFoundError:
            value = None
        return value, PageMeta(space=Space.PHYSICAL, kind=DataKind.STRUCTURED)

    def _with_retry(self, fn):
        if self.retry is None:
            return fn()
        return self.retry.call(fn)

    def read(self, key: str, allow_stale: bool = True):
        """Point read through the buffer pool.

        Graceful degradation: when the storage tier keeps failing past the
        retry budget (injected faults), the last value this platform served
        or wrote for ``key`` is returned instead — stale but available, the
        paper's availability-over-freshness stance for hot reads.  Counted
        in ``platform.stale_reads``; pass ``allow_stale=False`` to surface
        the failure instead.
        """
        try:
            value = self._with_retry(lambda: self.pool.get(key))
        except FaultInjectedError:
            if allow_stale and key in self._stale:
                self.metrics.counter("platform.stale_reads").inc()
                self.tracer.log("warning", "stale read served", key=key)
                return self._stale[key]
            raise
        self._remember(key, value)
        return value

    def _remember(self, key: str, value: object) -> None:
        self._stale[key] = value
        self._stale.move_to_end(key)
        while len(self._stale) > self._stale_capacity:
            self._stale.popitem(last=False)

    def write_record(self, record: DataRecord) -> None:
        """Persist a record to the storage engine, invalidating its page."""
        value = stored_record_value(record)
        self._with_retry(lambda: self.engine.put(record.key, value))
        self.pool.invalidate(record.key)
        self._remember(record.key, value)
        if self._positions is not None:
            self._index_position(record.key, record.payload)
        if self.semantic is not None:
            self.semantic.index_record(record.key, record.payload)

    def write_record_batch(self, batch: RecordBatch) -> None:
        """Persist a columnar batch: one bulk engine call for N records.

        Leaves byte-identical engine state, stale-cache contents, and page
        invalidations to ``for r in batch.to_records(): write_record(r)`` —
        the stored wrapper dicts are rebuilt from the columns with exact
        scalar conversion — while paying one (coalesced) storage round
        trip and zero per-record Python object churn.
        """
        payloads = batch.payloads()
        spaces = batch.space_values()
        times = batch.timestamps.tolist()
        items = [
            (key, {"payload": payload, "space": space.value, "timestamp": ts})
            for key, payload, space, ts in zip(
                batch.keys, payloads, spaces, times
            )
        ]
        self._with_retry(lambda: self.engine.mput(items))
        invalidate = self.pool.invalidate
        stale = self._stale
        for key, value in items:
            invalidate(key)
            stale[key] = value
            stale.move_to_end(key)
        while len(stale) > self._stale_capacity:
            stale.popitem(last=False)
        if self._positions is not None:
            # Columns are numeric by construction, so either every row has
            # a position (x and y columns present) or none does — the same
            # membership rule _index_position applies per record.
            if "x" in batch.columns and "y" in batch.columns:
                self._positions.update(
                    zip(
                        batch.keys,
                        zip(
                            batch.columns["x"].tolist(),
                            batch.columns["y"].tolist(),
                        ),
                    )
                )
            else:
                for key in batch.keys:
                    self._positions.pop(key, None)
        if self.semantic is not None:
            for key, payload in zip(batch.keys, payloads):
                self.semantic.index_record(key, payload)

    def _index_position(self, key: str, payload: dict) -> None:
        """Track (or forget) the entity's payload position.

        Same membership rule as the scan-based spatial filter — numeric
        ``x`` and ``y`` — so the indexed and scanning paths select
        identical result sets.
        """
        x, y = payload.get("x"), payload.get("y")
        if isinstance(x, (int, float)) and isinstance(y, (int, float)):
            self._positions[key] = (x, y)
        else:
            self._positions.pop(key, None)

    def scan(self, lo: str, hi: str | None) -> list[tuple[str, object]]:
        """Sorted range scan of the entity tier (retried past transient
        faults); ``hi=None`` leaves it open above.  On a remote engine
        this fans out across storage nodes."""
        return self._with_retry(lambda: self.engine.scan(lo, hi))

    # -- device tier ------------------------------------------------------------

    def register_gateway(self, name: str, gateway: DeviceGateway) -> None:
        if name in self.gateways:
            raise ConfigurationError(f"duplicate gateway {name!r}")
        # Adopt gateways that kept their default no-op tracer so device-tier
        # spans nest under platform spans; an explicitly injected tracer wins.
        if not gateway.tracer_injected:
            gateway.tracer = self.tracer
        # Same adoption for the fault injector: the platform's chaos plan
        # reaches the device tier unless the gateway brought its own.
        if gateway.faults is None:
            gateway.faults = self.faults
        self.gateways[name] = gateway

    def flush_gateways(self) -> tuple[int, int]:
        """Flush every gateway into storage; return (records, uplink bytes)."""
        total_records = 0
        total_bytes = 0
        with self.tracer.span("platform.flush_gateways"):
            for gateway in self.gateways.values():
                records, uplink = gateway.flush()
                total_bytes += uplink
                for record in records:
                    self.write_record(record)
                    self.publish(
                        Publication(
                            topic=f"ingest.{record.source}",
                            payload={**record.payload, "key": record.key},
                            timestamp=record.timestamp,
                            size_bytes=record.size_bytes(),
                        )
                    )
                    total_records += 1
        self.metrics.counter("platform.ingested_records").inc(total_records)
        self.metrics.counter("platform.uplink_bytes").inc(total_bytes)
        return total_records, total_bytes

    def flush_gateways_batch(self) -> tuple[int, int]:
        """Columnar twin of :meth:`flush_gateways`.

        Stored state is byte-identical to the per-record path over the
        same rows; the difference is on the event side, where one digest
        publication per gateway batch replaces the per-record stream
        (events are lossy by contract, unlike storage writes).
        """
        total_records = 0
        total_bytes = 0
        with self.tracer.span("platform.flush_gateways"):
            for gateway in self.gateways.values():
                batch, uplink = gateway.flush_batch()
                total_bytes += uplink
                if batch is None:
                    continue
                self.write_record_batch(batch)
                self.publish(
                    Publication(
                        topic=f"ingest.{batch.source}",
                        payload={"records": len(batch), "batch": True},
                        timestamp=float(batch.timestamps.max()),
                        size_bytes=uplink,
                    )
                )
                total_records += len(batch)
        self.metrics.counter("platform.ingested_records").inc(total_records)
        self.metrics.counter("platform.uplink_bytes").inc(total_bytes)
        return total_records, total_bytes

    # -- DataPlane: buffered ingest and tick --------------------------------
    #
    # The single-node half of the repro.api.DataPlane protocol: records
    # buffer (per-record or columnar) and become visible to queries at the
    # next flush()/tick(), exactly the contract the cluster facade keeps.

    def ingest(self, record: DataRecord) -> None:
        """Buffer one observation until the next :meth:`flush`."""
        self._pending.append(record)
        self.metrics.counter("platform.buffered_records").inc()

    def ingest_many(self, records: list[DataRecord]) -> None:
        with self.tracer.span("platform.ingest", batch=len(records)):
            for record in records:
                self.ingest(record)

    def ingest_batch(self, batch: RecordBatch) -> None:
        """Buffer one columnar batch until the next :meth:`flush`."""
        self._pending_batches.append(batch)
        self.metrics.counter("platform.buffered_records").inc(len(batch))

    @property
    def pending_count(self) -> int:
        return len(self._pending) + sum(
            len(batch) for batch in self._pending_batches
        )

    def flush(self) -> int:
        """Write everything buffered; return the number of records."""
        total = 0
        with self.tracer.span("platform.flush", pending=self.pending_count):
            records, self._pending = self._pending, []
            for record in records:
                self.write_record(record)
            total += len(records)
            batches, self._pending_batches = self._pending_batches, []
            for batch in batches:
                self.write_record_batch(batch)
                total += len(batch)
        self.metrics.counter("platform.ingested_records").inc(total)
        return total

    def tick(self, dt: float) -> dict[str, GatherResult]:
        """One simulated-clock tick: advance time, flush buffered ingest,
        refresh every registered continuous query.  Returns fresh results."""
        self.clock.advance(dt)
        self.flush()
        results: dict[str, GatherResult] = {}
        for query in self._continuous.values():
            query.results = self.query(query.request)
            self.metrics.counter("platform.continuous.evaluations").inc()
            results[query.query_id] = query.results
        return results

    # -- DataPlane: queries --------------------------------------------------

    def query(self, request: QueryRequest) -> GatherResult:
        """Run one query-plane request on this node (single-shard executor).

        The modality plans/rewrites once, executes against this platform
        as the only shard, and merges the single partial — the same code
        path the cluster scatter-gathers, minus the fan-out.
        """
        return self.query_executor.run_single(self, request)

    def scan_prefix(self, prefix: str) -> GatherResult:
        """Range query: every (key, value) with ``key`` under ``prefix``."""
        return self.query(prefix_query(prefix))

    def query_spatial(self, region: "BBox") -> GatherResult:
        """Entities whose payload position (``x``/``y``) lies in ``region``."""
        return self.query(spatial_query(region))

    def spatial_items(self, region: "BBox") -> list:
        """Shard-local spatial execution (unsorted; the modality merges).

        With the position index on (local engine), candidate keys come
        from a dict filter instead of a full keyspace scan; both paths
        select the same result set.
        """
        items: list = []
        if self._positions is not None:
            for key, (x, y) in self._positions.items():
                if (
                    region.x_min <= x <= region.x_max
                    and region.y_min <= y <= region.y_max
                ):
                    try:
                        value = self._with_retry(
                            lambda k=key: self.engine.get(k)
                        )
                    except KeyNotFoundError:
                        continue
                    items.append((key, value))
        else:
            for key, value in self.scan("", None):
                payload = (
                    value.get("payload", {}) if isinstance(value, dict) else {}
                )
                x, y = payload.get("x"), payload.get("y")
                if (
                    isinstance(x, (int, float))
                    and isinstance(y, (int, float))
                    and region.x_min <= x <= region.x_max
                    and region.y_min <= y <= region.y_max
                ):
                    items.append((key, value))
        return items

    def semantic_search(
        self, vector, k: int, ef: int | None = None
    ) -> list[tuple[str, float]]:
        """Shard-local ANN top-k over this node's semantic index."""
        if self.semantic is None:
            raise ConfigurationError(
                "semantic index not enabled; build the platform with "
                "semantic_index=True (or a SemanticIndexConfig)"
            )
        self.metrics.counter("platform.semantic.searches").inc()
        return self.semantic.search(vector, k, ef=ef)

    def register_continuous(self, query_id: str, prefix: str) -> None:
        """Register a standing prefix query, re-evaluated every tick."""
        self.register_continuous_query(query_id, prefix_query(prefix))

    def register_continuous_query(
        self, query_id: str, request: QueryRequest
    ) -> None:
        """Register a standing query of *any* modality, refreshed per tick."""
        if query_id in self._continuous:
            raise ConfigurationError(f"duplicate continuous query {query_id!r}")
        self._continuous[query_id] = ContinuousQuery(query_id, request)

    def continuous_results(self, query_id: str) -> GatherResult | None:
        return self._continuous[query_id].results

    # -- pub/sub --------------------------------------------------------------

    def publish(self, publication: Publication) -> list[Subscription]:
        """Publish through the broker with the platform's recovery policies.

        Transient broker faults are retried; while the circuit breaker is
        open, publications are shed (``platform.publish_shed``) instead of
        hammering a failing broker; a publish that stays failing past the
        retry budget is dropped and counted (``platform.publish_failed``)
        rather than aborting the caller's pipeline — events are lossy by
        contract, unlike storage writes.  Outcomes feed the degradation
        controller when one is attached.
        """
        if self.breaker is not None and not self.breaker.allow():
            self.metrics.counter("platform.publish_shed").inc()
            return []
        try:
            matched = self._with_retry(lambda: self.broker.publish(publication))
        except FaultInjectedError:
            if self.breaker is not None:
                self.breaker.record_failure()
            if self.degradation is not None:
                self.degradation.observe(False)
            self.metrics.counter("platform.publish_failed").inc()
            return []
        if self.breaker is not None:
            self.breaker.record_success()
        if self.degradation is not None:
            self.degradation.observe(True)
        return matched

    # -- marketplace transactions --------------------------------------------------

    def load_catalog(self, records: list[DataRecord]) -> None:
        for record in records:
            txn = self.txn.begin()
            txn.write(record.key, dict(record.payload))
            self.txn.commit(txn)
            self._persist_product(record.key, dict(record.payload))

    # -- product write-through / hydration ----------------------------------
    #
    # The compute-side MVCC store is a *cache* of committed catalog state;
    # the storage engine holds the durable record.  On the default local
    # engine the write-through is a dict assignment (free, invisible); on a
    # remote engine it is what makes the compute node stateless — any other
    # compute node can hydrate the same product from the shared tier.

    def _persist_product(self, product_id: str, value: dict | None) -> None:
        """Write committed product state through to the storage engine
        (``None`` deletes).  A write that stays failing past the retry
        budget is parked dirty and re-flushed on the next persist."""
        self._dirty_products[product_id] = value
        self._dirty_products.move_to_end(product_id)
        for pid in list(self._dirty_products):
            pending = self._dirty_products[pid]
            try:
                if pending is None:
                    self._with_retry(lambda p=pid: self.engine.delete_product(p))
                else:
                    self._with_retry(
                        lambda p=pid, v=pending: self.engine.put_product(p, v)
                    )
            except FaultInjectedError:
                self.metrics.counter("platform.product_persist_deferred").inc()
                return
            del self._dirty_products[pid]

    def _hydrate_product(self, product_id: str) -> dict | None:
        """Pull a product the compute cache has never seen (or dropped)
        from the storage engine into MVCC; ``None`` when the tier has no
        record either (or stayed unreachable past the retry budget)."""
        try:
            value = self._with_retry(lambda: self.engine.get_product(product_id))
        except FaultInjectedError:
            return None
        if value is None:
            return None
        self._install_product(product_id, value)
        self.metrics.counter("platform.products_hydrated").inc()
        return value

    def _install_product(self, product_id: str, value: dict) -> None:
        """Commit ``value`` into the MVCC cache without writing it back."""
        txn = self.txn.begin()
        txn.write(product_id, dict(value))
        self.txn.commit(txn)

    def persist_committed(self, product_id: str) -> None:
        """Write the currently committed state of ``product_id`` through
        to the storage engine (the 2PC apply path, where the committed
        value is produced outside :meth:`_purchase_attempts`)."""
        txn = self.txn.begin()
        value = txn.read_or(product_id)
        self._persist_product(
            product_id, dict(value) if value is not None else None
        )

    def flush_dirty_products(self) -> int:
        """Re-drive deferred product write-throughs; returns how many are
        still dirty afterwards.

        Called before :meth:`reset_caches` on a stateless-compute remap:
        the MVCC cache about to be dropped may be the only holder of
        committed stock the storage tier missed (write-through parked on
        a fault), and the next owner hydrates from the tier.  A write
        still failing past the retry budget leaves its entry parked and
        stops the sweep (the fault has not cleared; later entries would
        fail the same way).
        """
        for product_id in list(self._dirty_products):
            pending = self._dirty_products[product_id]
            try:
                if pending is None:
                    self._with_retry(
                        lambda p=product_id: self.engine.delete_product(p)
                    )
                else:
                    self._with_retry(
                        lambda p=product_id, v=pending: self.engine.put_product(
                            p, v
                        )
                    )
            except FaultInjectedError:
                self.metrics.counter("platform.product_persist_deferred").inc()
                break
            del self._dirty_products[product_id]
        return len(self._dirty_products)

    def reset_products(self) -> None:
        """Drop the compute-side product cache (stateless-compute remap).

        After cluster membership changes in disaggregated mode, product
        ownership moves between compute nodes without any data movement;
        clearing the cache forces the next purchase on the new owner to
        hydrate fresh, committed state from the shared storage tier."""
        self.txn = TransactionManager(metrics=self.metrics, tracer=self.tracer)
        self.metrics.counter("platform.product_cache_resets").inc()

    def reset_caches(self) -> None:
        """Drop every compute-side cache — product MVCC, buffer pool, and
        the stale-read fallback — so all subsequent reads re-load from the
        storage engine.  The full stateless-compute remap: what a compute
        node does when cluster membership changes under it."""
        self.reset_products()
        self.pool = BufferPool(
            capacity=self._buffer_pool_pages,
            loader=self._load_page,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self._stale.clear()

    def maintain_storage(self, now: float | None = None) -> dict:
        """One data-lifecycle sweep of the storage engine (checkpointing,
        tier demotion).  A no-op dict for engines without lifecycle
        management, so callers can invoke it unconditionally."""
        return self.engine.maintain(
            self.clock.now if now is None else now
        )

    def _executor_for(self, product_id: str) -> int:
        return stable_hash(product_id) % self.n_executors

    def process_purchases(
        self,
        requests: list[PurchaseRequest],
        max_retries: int = 2,
        presorted: bool = False,
    ) -> list[PurchaseOutcome]:
        """Execute a batch of purchases with space-aware ordering.

        Requests are ordered by (priority, time): with
        ``physical_priority`` on, physical-space shoppers win ties on the
        last unit — the paper's example policy.  Each purchase is an MVCC
        transaction decrementing the product's stock; conflicts retry up to
        ``max_retries`` times.  ``presorted=True`` skips the sort — the
        cluster router passes order-preserved subsequences of an already
        globally sorted stream, so per-shard re-sorting is pure overhead.
        """
        outcomes = []
        if not presorted:
            requests = sorted(
                requests,
                key=lambda r: purchase_sort_key(r, self.physical_priority),
            )
        with self.tracer.span("platform.process_purchases", n=len(requests)):
            for request in requests:
                outcomes.append(self._purchase_one(request, max_retries))
        return outcomes

    def _purchase_one(
        self, request: PurchaseRequest, max_retries: int
    ) -> PurchaseOutcome:
        # A sampling boundary: with sample_every=k, one purchase in k
        # records its sub-trace (commit spans included) — see Tracer.
        with self.tracer.sampled_span("platform.purchase"):
            return self._purchase_attempts(request, max_retries)

    def _purchase_attempts(
        self, request: PurchaseRequest, max_retries: int
    ) -> PurchaseOutcome:
        executor = self.executors[self._executor_for(request.product_id)]
        for _ in range(max_retries + 1):
            executor.busy_time += self.txn_cost_s
            txn = self.txn.begin()
            try:
                product = txn.read(request.product_id)
            except KeyNotFoundError:
                self.txn.abort(txn)
                # Stateless-compute path: an empty MVCC cache is not "no
                # such product" until the storage tier agrees.
                if self._hydrate_product(request.product_id) is not None:
                    continue
                return PurchaseOutcome(request, False, "no such product")
            stock = product.get("stock", 0)
            if stock < request.quantity:
                self.txn.abort(txn)
                self.metrics.counter("platform.soldout").inc()
                return PurchaseOutcome(request, False, "sold out")
            updated = dict(product)
            updated["stock"] = stock - request.quantity
            txn.write(request.product_id, updated)
            try:
                self.txn.commit(txn)
            except WriteConflictError:
                self.metrics.counter("platform.retries").inc()
                continue
            executor.processed += 1
            self.metrics.counter("platform.purchases").inc()
            self._persist_product(request.product_id, updated)
            if self.purchase_log is not None:
                self.purchase_log(request.product_id, updated["stock"])
            return PurchaseOutcome(request, True)
        return PurchaseOutcome(request, False, "conflict retries exhausted")

    # -- cluster support ----------------------------------------------------
    #
    # The scale-out layer (repro.cluster) treats each platform as one shard
    # and needs a public surface for key migration: raw KV values move as
    # is (they are already the stored wrapper dicts), catalog products move
    # as committed MVCC state.  All storage touches go through the shard's
    # own retry policy so migration survives transient injected faults.

    def entity_keys(self) -> list[str]:
        """Keys of every entity this shard's engine holds."""
        return self._with_retry(lambda: self.engine.keys())

    def entity_count(self) -> int:
        """How many entities this shard's engine holds."""
        return self._with_retry(lambda: self.engine.key_count())

    def export_entity(self, key: str):
        """The stored value for ``key`` (retried past transient faults)."""
        return self._with_retry(lambda: self.engine.get(key))

    def import_entity(self, key: str, value: object) -> None:
        """Adopt a migrated entity value, keeping caches coherent."""
        self._with_retry(lambda: self.engine.put(key, value))
        self.pool.invalidate(key)
        self._remember(key, value)
        payload = value.get("payload", {}) if isinstance(value, dict) else {}
        if self._positions is not None:
            self._index_position(key, payload)
        if self.semantic is not None:
            self.semantic.index_record(key, payload)

    def drop_entity(self, key: str) -> None:
        """Forget an entity handed off to another shard."""
        self._with_retry(lambda: self.engine.delete(key))
        self.pool.invalidate(key)
        self._stale.pop(key, None)
        if self._positions is not None:
            self._positions.pop(key, None)
        if self.semantic is not None:
            self.semantic.discard(key)

    def catalog_snapshot(self) -> dict[str, dict]:
        """Committed product state, keyed by product id."""
        store = self.txn.store
        return {key: dict(value) for key, value in store.scan_at(store.last_commit_ts)}

    def import_product(self, product_id: str, value: dict) -> None:
        self._install_product(product_id, value)
        self._persist_product(product_id, dict(value))

    def drop_product(self, product_id: str) -> None:
        txn = self.txn.begin()
        txn.delete(product_id)
        self.txn.commit(txn)
        self._persist_product(product_id, None)

    def get_stock(self, product_id: str) -> int:
        """Current stock of ``product_id`` as seen by a fresh snapshot."""
        txn = self.txn.begin()
        try:
            return int(txn.read(product_id).get("stock", 0))
        except KeyNotFoundError:
            self.txn.abort(txn)
            value = self._hydrate_product(product_id)
            if value is None:
                raise
            txn = self.txn.begin()
            return int(txn.read(product_id).get("stock", 0))

    def compute_makespan(self) -> float:
        """Simulated completion time: the busiest executor's busy time."""
        return max(e.busy_time for e in self.executors)

    def compute_throughput(self, n_requests: int) -> float:
        makespan = self.compute_makespan()
        return n_requests / makespan if makespan > 0 else float("inf")
