"""Horizontal scale-out: N platform shards behind one facade (paper Sec. IV).

The paper's answer to the data deluge is disaggregated, horizontally
scalable storage and compute; the ROADMAP north-star is "heavy traffic
from millions of users".  A single :class:`MetaversePlatform` node tops
out at its executor pool — :class:`PlatformCluster` scales past it by
partitioning entity and product keys across N full platform shards with a
:class:`~repro.cluster.router.ShardRouter` (consistent-hash ring, vnodes)
and coordinating the cross-shard paths:

* **batched ingest** — observations buffer in the router grouped by owning
  shard and flush per simulated-clock tick, so each shard sees one batch
  per tick instead of a per-record stream;
* **scatter-gather queries** — prefix/range, spatial, and continuous
  queries fan out to every shard under a per-shard
  :class:`~repro.resilience.policies.Deadline`; a shard that faults or
  blows its deadline is skipped and the gather is marked partial rather
  than failing the caller;
* **purchases** — single-product requests route to the owning shard (the
  global stream is pre-sorted with the same space-aware key a single node
  uses, so sharded and single-node runs decide every purchase the same
  way); multi-product baskets spanning shards run through the existing
  2PC coordinator (:mod:`repro.cluster.coordinator`);
* **rebalancing** — shards join and leave live: every key whose ring
  owner changed migrates (KV entities and catalog products both), with
  no entity lost or duplicated;
* **disaggregated mode** (``n_storage_nodes=M``) — the Fig. 7 split:
  every compute shard mounts a shared
  :class:`~repro.storage.engine.StorageTier` of M standalone storage
  nodes through a :class:`~repro.storage.engine.RemoteStorageEngine`, so
  N compute nodes scale independently of M storage nodes.  State lives in
  the tier: shard join/leave is a pure ring remap (zero entity
  migration — compute caches reset, nothing moves), ``kill_shard``
  marks the compute node down and the next :meth:`tick` recovers it by
  *re-mounting* the surviving storage nodes (no WAL replay, no data
  movement), and reads re-route to any live compute node while the owner
  is down.  Mutually exclusive with replica failover (``n_replicas >=
  2``): in a disaggregated deployment the shared tier *is* the
  availability mechanism.

Chaos coverage: sites ``cluster.ingest`` (drop) and ``cluster.query``
(crash/delay) are instrumented, and the shared fault injector reaches
every shard's storage/broker/gateway sites, so the nightly chaos tier
exercises the cluster path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..api.dataplane import ContinuousQuery, GatherResult
from ..core.clock import SimulationClock
from ..core.columns import RecordBatch
from ..core.errors import (
    ConfigurationError,
    FaultInjectedError,
    KeyNotFoundError,
)
from ..core.metrics import MetricsRegistry
from ..core.records import DataRecord, Space
from ..net.overlay import stable_hash
from ..obs.tracing import NoopTracer, Tracer
from ..platform.platform import (
    MetaversePlatform,
    PurchaseOutcome,
    purchase_sort_key,
    stored_record_value,
)
from ..query.plane import (
    QueryExecutor,
    QueryModality,
    QueryPlan,
    QueryRequest,
    prefix_query,
    spatial_query,
)
from ..resilience.faults import FaultInjector
from ..resilience.policies import Timeout
from ..storage.engine import StorageTier
from ..spatial.geometry import BBox
from ..txn.twopc import TxnOutcome
from ..workloads.marketplace import PurchaseRequest
from .config import ClusterConfig
from .coordinator import CrossShardCoordinator
from .elasticity import ElasticityController
from .failover import RECOVERING, FailoverManager
from .router import ShardRouter

#: Per-shard breaker-state gauge encoding (matches the platform-level
#: ``resilience.breaker.<name>.state`` gauge: closed/half-open/open).
_BREAKER_STATE_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


@dataclass
class BasketOutcome:
    """Outcome of an all-or-nothing multi-product basket."""

    committed: bool
    reason: str = ""
    shards: tuple[str, ...] = ()
    txn: TxnOutcome | None = None


class PlatformCluster:
    """N :class:`MetaversePlatform` shards behind a single facade.

    All shards share the cluster's metrics registry, tracer, and (when
    present) fault injector, so cluster-wide counters aggregate naturally
    and per-shard gauges (``cluster.shard.<name>.*``) sit beside them.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        config = (config if config is not None else ClusterConfig()).validate()
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        if faults is not None:
            # Route the injector's counters/spans into the cluster registry
            # before any shard adopts it (platform adoption would otherwise
            # rebind them shard by shard).
            faults.metrics = self.metrics
            faults.metrics_injected = True
            faults.tracer = self.tracer
            faults.tracer_injected = True
        self.clock = faults.clock if faults is not None else SimulationClock()
        self.physical_priority = config.physical_priority
        self.query_deadline = Timeout(config.query_deadline_s)
        self.router = ShardRouter(vnodes=config.vnodes, metrics=self.metrics)
        # Disaggregated mode: one shared storage tier, mounted by every
        # compute shard.  The tier shares the cluster clock so RPC latency
        # advances the same simulated time the rest of the system runs on.
        self.storage: StorageTier | None = None
        self._down_compute: set[str] = set()
        if config.n_storage_nodes is not None:
            self.storage = StorageTier(
                n_nodes=config.n_storage_nodes,
                vnodes=config.storage_vnodes,
                clock=self.clock,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        self.shards: dict[str, MetaversePlatform] = {}
        for i in range(config.n_shards):
            name = f"shard-{i}"
            self.router.add_shard(name)
            self.shards[name] = self._make_shard(name)
        self.coordinator = CrossShardCoordinator(
            self.shards,
            clock=self.clock,
            timeout_s=config.twopc_timeout_s,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self._pending: dict[str, list[DataRecord]] = {}
        self._pending_batches: dict[str, list[RecordBatch]] = {}
        self._continuous: dict[str, ContinuousQuery] = {}
        # Query-plane executor: resolves requests to (modality, plan);
        # the cluster contributes only the scatter-gather dispatch.
        self.query_executor = QueryExecutor()
        # Bounded-drain ingest queues (opt-in): banked per-shard drain
        # credit, accrued each tick at ``shard_drain_rate`` and spent by
        # flush().  With the rate unset, flushes stay unbounded and the
        # dict stays empty.
        self._drain_credit: dict[str, float] = {}
        # Closed-loop elasticity (opt-in via config.elasticity): the
        # controller reads this cluster's own metrics each tick and
        # drives shard membership, hot-key salting, and admission.
        self.elasticity: ElasticityController | None = None
        if config.elasticity is not None:
            self.elasticity = ElasticityController(
                self,
                config.elasticity,
                clock=self.clock,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        # Failover is opt-in: with n_replicas == 1 (the default) nothing is
        # replicated, no heartbeats flow, and every path below behaves
        # exactly as before.
        self.failover: FailoverManager | None = None
        if config.n_replicas >= 2:
            self.failover = FailoverManager(
                self,
                n_replicas=config.n_replicas,
                heartbeat_interval_s=config.heartbeat_interval_s,
                phi_threshold=config.phi_threshold,
                tracer=self.tracer,
                replica_log_compact_threshold=(
                    config.replica_log_compact_threshold
                ),
            )
            for name, shard in self.shards.items():
                self._hook_purchase_log(name, shard)

    def _make_shard(self, name: str | None = None) -> MetaversePlatform:
        engine = None
        if self.storage is not None:
            # Stateless compute: the shard's engine is a fresh mount of
            # the shared tier (a new network identity per mount, so a
            # re-mounted shard rejoins like a restarted process would).
            # Storage RPCs inherit the platform's own retry policy via
            # _with_retry, so the engine itself carries none.
            engine = self.storage.mount(
                client=name or "shard",
                faults=self.faults,
                rpc_timeout_s=self.config.storage_rpc_timeout_s,
            )
        return MetaversePlatform(
            n_executors=self.config.n_executors_per_shard,
            buffer_pool_pages=self.config.buffer_pool_pages,
            physical_priority=self.physical_priority,
            txn_cost_s=self.config.txn_cost_s,
            metrics=self.metrics,
            tracer=self.tracer,
            faults=self.faults,
            engine=engine,
            semantic_index=self.config.semantic_index,
        )

    def shard_of(self, key: str) -> MetaversePlatform:
        """The shard platform currently owning ``key``."""
        return self.shards[self.router.owner_of(key)]

    def _hook_purchase_log(self, name: str, shard: MetaversePlatform) -> None:
        """Route the shard's committed stock levels into the failover log."""
        shard.purchase_log = (
            lambda product_id, stock, owner=name: self.failover.log_stock(
                owner, product_id, stock
            )
        )

    def _is_down(self, name: str) -> bool:
        if name in self._down_compute:
            return True
        return self.failover is not None and self.failover.is_down(name)

    def install_shard(self, name: str, platform: MetaversePlatform) -> None:
        """Swap in a promoted replica under an existing shard name.

        Called by the failover manager: the router ring is untouched (the
        name — and therefore key ownership — survives the crash), the 2PC
        participant re-binds to the new platform, and the stock-level
        replication hook is re-armed.
        """
        if name not in self.shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        self.shards[name] = platform
        self.coordinator.attach_shard(name, platform)
        if self.failover is not None:
            self._hook_purchase_log(name, platform)

    def _remount_shard(self, name: str) -> None:
        """Bring a crashed compute node back by mounting the tier afresh."""
        shard = self._make_shard(name)
        self.shards[name] = shard
        self.coordinator.attach_shard(name, shard)
        self.metrics.counter("cluster.disagg.remounts").inc()
        self.tracer.log("info", "compute node re-mounted storage tier",
                        shard=name)

    # -- batched ingest -----------------------------------------------------

    def ingest(self, record: DataRecord) -> None:
        """Buffer one observation, grouped under its owning shard.

        With admission control on (``config.elasticity.admission_rate``),
        the record passes the owning shard's token bucket first —
        virtual-space LOD traffic is shed when the bucket is dry,
        physical-space records always land.
        """
        if self.faults is not None:
            if self.faults.decide("cluster.ingest", kinds=("drop",)).faulted:
                self.metrics.counter("cluster.dropped_records").inc()
                return
        owner = self.router.owner_of(record.key)
        if not self._admit(owner, record.space):
            return
        self._pending.setdefault(owner, []).append(record)
        self.metrics.counter("cluster.buffered_records").inc()

    def ingest_many(self, records: list[DataRecord]) -> None:
        with self.tracer.span("cluster.ingest", batch=len(records)):
            for record in records:
                self.ingest(record)

    def ingest_batch(self, batch: RecordBatch) -> None:
        """Buffer one columnar batch, split by owning shard.

        Fault decisions stay per row (same injector RNG sequence as the
        per-record path); surviving rows stay columnar per shard unless
        replica failover is on, whose op log is inherently per record.
        """
        if self.faults is not None:
            keep = [
                i for i in range(len(batch))
                if not self.faults.decide(
                    "cluster.ingest", kinds=("drop",)
                ).faulted
            ]
            dropped = len(batch) - len(keep)
            if dropped:
                self.metrics.counter("cluster.dropped_records").inc(dropped)
                if not keep:
                    return
                batch = batch.take(keep)
        if self.elasticity is not None and self.elasticity.admission is not None:
            spaces = batch.space_values()
            admitted = [
                i
                for i, key in enumerate(batch.keys)
                if self._admit(self.router.owner_of(key), spaces[i])
            ]
            if len(admitted) < len(batch):
                if not admitted:
                    return
                batch = batch.take(admitted)
        owners: dict[str, list[int]] = {}
        for i, key in enumerate(batch.keys):
            owners.setdefault(self.router.owner_of(key), []).append(i)
        if self.failover is not None:
            records = batch.to_records()
            for name, rows in owners.items():
                self._pending.setdefault(name, []).extend(
                    records[i] for i in rows
                )
        else:
            for name, rows in owners.items():
                shard_batch = (
                    batch if len(rows) == len(batch) else batch.take(rows)
                )
                self._pending_batches.setdefault(name, []).append(shard_batch)
        self.metrics.counter("cluster.buffered_records").inc(len(batch))

    @property
    def pending_count(self) -> int:
        return sum(len(batch) for batch in self._pending.values()) + sum(
            len(batch)
            for batches in self._pending_batches.values()
            for batch in batches
        )

    def shard_queue_depth(self, name: str) -> int:
        """Records currently queued for ``name`` (bounded-drain mode)."""
        return len(self._pending.get(name, [])) + sum(
            len(batch) for batch in self._pending_batches.get(name, [])
        )

    def _admit(self, owner: str, space: Space) -> bool:
        if self.elasticity is None or self.elasticity.admission is None:
            return True
        return self.elasticity.admission.admit(owner, space)

    def flush(self, force: bool = True) -> int:
        """Write buffered batches to their shards; return records written.

        Direct calls (and membership changes, which must not leave
        records queued under a stale ring) drain everything.  The tick
        path passes ``force=False``: with ``shard_drain_rate`` set, each
        shard writes at most its banked drain credit and the remainder
        stays queued — the queue depth and implied wait are the
        elasticity loop's load signal.
        """
        total = 0
        rate = self.config.shard_drain_rate
        bounded = not force and rate is not None
        with self.tracer.span("cluster.flush", pending=self.pending_count):
            for name in self.router.shards:
                if self._is_down(name):
                    # Crashed and not yet failed over: keep the batch
                    # buffered — it flushes to the promoted replica.
                    continue
                budget = (
                    int(self._drain_credit.get(name, 0.0)) if bounded else None
                )
                written = self._flush_shard(name, budget)
                if bounded and written:
                    self._drain_credit[name] = (
                        self._drain_credit.get(name, 0.0) - written
                    )
                total += written
        self.metrics.counter("cluster.ingested_records").inc(total)
        self._refresh_shard_gauges()
        return total

    def _flush_shard(self, name: str, budget: int | None) -> int:
        """Write up to ``budget`` queued records to ``name`` (None =
        unbounded); leftovers stay queued in arrival order."""
        shard = self.shards[name]
        written = 0
        batch = self._pending.get(name)
        if batch:
            take = len(batch) if budget is None else min(budget, len(batch))
            if take:
                self.metrics.histogram("cluster.router.batch_size").observe(
                    take
                )
                for record in batch[:take]:
                    shard.write_record(record)
                    if self.failover is not None:
                        self.failover.log_entity(
                            name, record.key, stored_record_value(record)
                        )
                written += take
                if take == len(batch):
                    del self._pending[name]
                else:
                    self._pending[name] = batch[take:]
        columnar = self._pending_batches.get(name)
        if columnar:
            remaining = None if budget is None else budget - written
            drained = 0
            for i, shard_batch in enumerate(columnar):
                if remaining is not None and remaining <= 0:
                    break
                if remaining is not None and len(shard_batch) > remaining:
                    # Split the batch at the budget: the head flushes
                    # now, the columnar tail stays queued.
                    head = shard_batch.take(list(range(remaining)))
                    tail = shard_batch.take(
                        list(range(remaining, len(shard_batch)))
                    )
                    self.metrics.histogram(
                        "cluster.router.batch_size"
                    ).observe(len(head))
                    shard.write_record_batch(head)
                    written += len(head)
                    columnar[i] = tail
                    remaining = 0
                    break
                # One bulk write per buffered batch: the shard's
                # engine coalesces it into one RPC per storage node.
                self.metrics.histogram("cluster.router.batch_size").observe(
                    len(shard_batch)
                )
                shard.write_record_batch(shard_batch)
                written += len(shard_batch)
                drained += 1
                if remaining is not None:
                    remaining -= len(shard_batch)
            if drained == len(columnar):
                del self._pending_batches[name]
            elif drained:
                self._pending_batches[name] = columnar[drained:]
        return written

    def tick(self, dt: float) -> dict[str, GatherResult]:
        """One simulated-clock tick: advance time, flush batches, refresh
        every registered continuous query.  Returns the fresh results."""
        self.clock.advance(dt)
        if self._down_compute:
            # Disaggregated recovery: a crashed compute node holds no
            # state, so recovery is a re-mount of the surviving storage
            # nodes — no WAL replay, no data movement.
            for name in sorted(self._down_compute):
                self._remount_shard(name)
            self._down_compute.clear()
            self._refresh_shard_gauges()
        rate = self.config.shard_drain_rate
        if rate is not None:
            # Bank one tick of drain credit per live shard, capped so an
            # idle shard cannot accumulate an unbounded burst allowance.
            cap = max(rate, rate * dt)
            for name in self.router.shards:
                self._drain_credit[name] = min(
                    cap, self._drain_credit.get(name, 0.0) + rate * dt
                )
        self.flush(force=rate is None)
        if rate is not None:
            self._observe_ingest_waits(rate)
        if self.elasticity is not None:
            self.elasticity.tick(dt)
        if self.failover is not None:
            self.failover.tick()
        self.maintain_storage()
        results: dict[str, GatherResult] = {}
        for query in self._continuous.values():
            query.results = self.query(query.request)
            self.metrics.counter("cluster.continuous.evaluations").inc()
            results[query.query_id] = query.results
        return results

    def _observe_ingest_waits(self, rate: float) -> None:
        """Record each live shard's post-flush queue state: depth gauge
        plus implied drain wait (depth / rate) into the per-shard
        histogram the elasticity loop reads through a window."""
        for name in self.router.shards:
            if self._is_down(name):
                continue
            depth = self.shard_queue_depth(name)
            self.metrics.gauge(f"cluster.shard.{name}.queue_depth").set(
                float(depth)
            )
            self.metrics.histogram(
                f"cluster.shard.{name}.ingest_wait_s"
            ).observe(depth / rate)

    def ingest_wait_p95(self, window: int) -> float:
        """Worst per-shard p95 ingest wait over the last ``window``
        observations — the elasticity loop's SLO signal.  0.0 while no
        shard has observations (cold start, drain rate unset)."""
        worst = 0.0
        for name in self.router.shards:
            view = self.metrics.histogram(
                f"cluster.shard.{name}.ingest_wait_s"
            ).window(window)
            if view.count:
                worst = max(worst, view.p95())
        return worst

    def maintain_storage(self) -> None:
        """One data-lifecycle sweep across the cluster's storage.

        Disaggregated mode sweeps the shared tier's nodes; otherwise each
        live shard's own engine sweeps.  A no-op unless an engine actually
        implements lifecycle maintenance (e.g. the tiered engine), so the
        default cluster is unchanged.
        """
        now = self.clock.now
        if self.storage is not None:
            self.storage.maintain(now)
            return
        for name, shard in self.shards.items():
            if self._is_down(name):
                continue
            shard.maintain_storage(now)

    # -- reads and scatter-gather queries -----------------------------------

    def read(self, key: str, allow_stale: bool = True):
        """Point read, routed to the owning shard.

        While the owner is crashed (and not yet failed over), the read is
        answered from its replicated op log — stale by at most the
        replication lag, but available.  While the owner is a freshly
        promoted replica (recovering), the read additionally read-repairs:
        a value that disagrees with the replicated log is overwritten in
        place, so hot keys reconverge ahead of the anti-entropy sweep.
        """
        owner = self.router.owner_of(key)
        if owner in self._down_compute:
            # Disaggregated mode: state lives in the shared tier, so any
            # live compute node can answer — straight from the engine,
            # bypassing the fallback's caches so nothing stale lingers.
            fallback = self._live_shard()
            self.metrics.counter("cluster.disagg.rerouted_reads").inc()
            return fallback._with_retry(lambda: fallback.engine.get(key))
        if self.failover is not None:
            if self.failover.is_down(owner):
                self.metrics.counter("cluster.failover.replica_reads").inc()
                return self.failover.replicator.latest_value(owner, key)
            if self.failover.state(owner) == RECOVERING:
                return self._read_repair(owner, key, allow_stale)
        return self.shards[owner].read(key, allow_stale=allow_stale)

    def _live_shard(self) -> MetaversePlatform:
        """Any compute node that is up (disaggregated re-route target)."""
        for name in self.router.shards:
            if name not in self._down_compute:
                return self.shards[name]
        raise ConfigurationError("every compute node is down")

    def _read_repair(self, owner: str, key: str, allow_stale: bool):
        expected = self.failover.replicator.latest_value(owner, key)
        value = self.shards[owner].read(key, allow_stale=allow_stale)
        if expected is not None and value != expected:
            self.shards[owner].import_entity(key, expected)
            self.metrics.counter("cluster.failover.read_repairs").inc()
            return expected
        return value

    def write_record(self, record: DataRecord) -> None:
        """Unbatched write-through (catalog audits, tests)."""
        owner = self.router.owner_of(record.key)
        if self._is_down(owner):
            # The owner is crashed: defer like batched ingest does rather
            # than write into dead state; the flush after promotion lands it.
            self._pending.setdefault(owner, []).append(record)
            self.metrics.counter("cluster.failover.deferred_writes").inc()
            return
        self.shards[owner].write_record(record)
        if self.failover is not None:
            self.failover.log_entity(
                owner, record.key, stored_record_value(record)
            )

    def query(self, request: QueryRequest) -> GatherResult:
        """Scatter one query-plane request across the ring and merge.

        The modality (from the plane registry) plans/rewrites once; the
        cluster contributes exactly one thing — the fault-aware scatter
        in :meth:`_scatter` — and the modality folds the per-shard
        partials with its order-deterministic merge.  New modalities
        (e.g. :mod:`repro.semantic`) ride this path without any cluster
        edits.
        """
        modality, plan = self.query_executor.resolve(request)
        return self.run_plan(modality, plan)

    def run_plan(self, modality: QueryModality, plan: QueryPlan) -> GatherResult:
        """Dispatch an already-planned query (the geo layer reuses this
        to fan the same plan out across regions without re-planning)."""
        partials, failed = self._scatter(
            lambda name, shard: self._owned_slice(
                name, modality.execute(shard, plan), key_of=modality.item_key
            )
        )
        return GatherResult(
            items=modality.merge(partials, plan), failed_shards=failed
        )

    def gather(self, fn) -> GatherResult:
        """Scatter an ad-hoc ``fn(shard)`` to every shard (escape hatch
        for cross-shard reads that are not a registered modality); the
        per-shard results are concatenated in ring order."""
        partials, failed = self._scatter(lambda name, shard: fn(shard))
        return GatherResult(
            items=[item for partial in partials for item in partial],
            failed_shards=failed,
        )

    def _scatter(self, fn) -> tuple[list[list], tuple[str, ...]]:
        """THE scatter core: every fan-out in the cluster runs through here.

        Visits shards in ring order under per-shard deadlines.  A shard
        that is down, raises an injected crash (site ``cluster.query``),
        exceeds its deadline — injected delays advance the simulated
        clock — or whose storage RPCs stay faulted past the retry budget
        (disaggregated mode, site ``storage.rpc``) is skipped and
        reported in the failed tuple; the result is then *partial*, the
        availability-over-completeness stance the paper takes for
        interactive queries.  Partiality is observable exactly once per
        fan-out via the ``cluster.gather.partial`` counter, and
        ``failed_shards`` names exactly which shards were unreachable.
        """
        partials: list[list] = []
        failed: list[str] = []
        with self.tracer.span("cluster.gather", shards=len(self.shards)):
            for name in self.router.shards:
                if self._is_down(name):
                    self.metrics.counter("cluster.query.shard_down").inc()
                    failed.append(name)
                    continue
                guard = self.query_deadline.guard(self.clock, label=name)
                if self.faults is not None:
                    decision = self.faults.decide(
                        "cluster.query", target=name, kinds=("crash", "delay")
                    )
                    if decision.kind == "crash":
                        self.metrics.counter("cluster.query.shard_failed").inc()
                        failed.append(name)
                        continue
                    if decision.kind == "delay":
                        self.clock.advance(decision.delay_s)
                if guard.expired:
                    self.metrics.counter("cluster.query.deadline_missed").inc()
                    failed.append(name)
                    continue
                try:
                    partials.append(list(fn(name, self.shards[name])))
                except FaultInjectedError:
                    # Remote-engine RPCs that stayed faulted past the
                    # shard's retry budget: partial result, not an error.
                    self.metrics.counter("cluster.query.shard_failed").inc()
                    failed.append(name)
        self.metrics.histogram("cluster.query.fanout_results").observe(
            sum(len(partial) for partial in partials)
        )
        if failed:
            # Partial results are legitimate (availability over
            # completeness) but must be observable: dashboards alert on
            # this counter.
            self.metrics.counter("cluster.gather.partial").inc()
        return partials, tuple(failed)

    def _owned_slice(self, name: str, items: list, key_of=None) -> list:
        """Restrict shard output to keys ``name`` owns on the compute ring.

        On local engines each shard physically holds only its own keys and
        this is the identity; on a shared storage tier every compute node
        sees the whole keyspace, so scatter-gather must partition results
        by ring ownership to keep exactly-one semantics.  ``key_of`` maps
        one result item to its routing key (the modality's ``item_key``),
        keeping this filter modality-agnostic.
        """
        if self.storage is None:
            return items
        if key_of is None:
            def key_of(item):
                return item[0]
        return [
            item for item in items
            if self.router.owner_of(key_of(item)) == name
        ]

    def scan_prefix(self, prefix: str) -> GatherResult:
        """Range query: every (key, value) with ``key`` under ``prefix``."""
        return self.query(prefix_query(prefix))

    def query_spatial(self, region: BBox) -> GatherResult:
        """Entities whose payload position (``x``/``y``) lies in ``region``."""
        return self.query(spatial_query(region))

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

    # -- marketplace --------------------------------------------------------

    def load_catalog(self, records: list[DataRecord]) -> None:
        by_shard: dict[str, list[DataRecord]] = {}
        for record in records:
            by_shard.setdefault(self.router.owner_of(record.key), []).append(record)
        for name, batch in by_shard.items():
            self.shards[name].load_catalog(batch)
            if self.failover is not None:
                for record in batch:
                    self.failover.log_product(
                        name, record.key, dict(record.payload)
                    )

    def process_purchases(
        self, requests: list[PurchaseRequest], max_retries: int = 2
    ) -> list[PurchaseOutcome]:
        """Route each purchase to the shard owning its product.

        The global stream is sorted with the exact key a single node uses;
        each shard then processes the order-preserved subsequence, so every
        per-product decision (who gets the last unit) is identical to the
        single-node run — asserted by experiment E24.
        """
        ordered = sorted(
            requests, key=lambda r: purchase_sort_key(r, self.physical_priority)
        )
        # Salt-bucket routing: each request maps to the request that
        # actually executes (identity unless its product is salted).  The
        # heat sketch sees every original product id, so hot keys are
        # detected before and tracked after salting.
        routed = ordered
        if self.elasticity is not None:
            for request in ordered:
                self.elasticity.observe_purchase(request.product_id)
        if self.router.salted_keys():
            reserved: dict[str, int] = {}
            routed = [
                self._route_purchase(request, reserved)
                for request in ordered
            ]
        by_shard: dict[str, list[PurchaseRequest]] = {}
        for request in routed:
            owner = self.router.owner_of(request.product_id)
            by_shard.setdefault(owner, []).append(request)
        outcome_streams: dict[str, list[PurchaseOutcome]] = {}
        with self.tracer.span("cluster.process_purchases", n=len(requests)):
            for name, batch in by_shard.items():
                if self._is_down(name):
                    # Fail fast, never queue: a purchase against a crashed
                    # shard is rejected (and retriable by the shopper) —
                    # queuing it would risk double-execution at promotion.
                    outcome_streams[name] = [
                        PurchaseOutcome(request, False, "shard down")
                        for request in batch
                    ]
                    self.metrics.counter(
                        "cluster.failover.rejected_purchases"
                    ).inc(len(batch))
                    continue
                # presorted: each shard batch is an order-preserved
                # subsequence of the globally sorted stream.
                outcome_streams[name] = self.shards[name].process_purchases(
                    batch, max_retries=max_retries, presorted=True
                )
        # Re-interleave shard outcomes back into global order: each shard
        # returns its subsequence in the same sort order, so a positional
        # merge is exact.  Outcomes of salted requests are re-labelled
        # with the shopper's original request — callers never see bucket
        # keys.
        cursor = {name: 0 for name in outcome_streams}
        merged: list[PurchaseOutcome] = []
        for original, request in zip(ordered, routed):
            name = self.router.owner_of(request.product_id)
            outcome = outcome_streams[name][cursor[name]]
            cursor[name] += 1
            if request is not original:
                outcome = PurchaseOutcome(
                    original, outcome.success, outcome.reason
                )
            merged.append(outcome)
        self.metrics.counter("cluster.purchases_routed").inc(len(requests))
        self._refresh_purchase_gauges()
        return merged

    def process_basket(self, requests: list[PurchaseRequest]) -> BasketOutcome:
        """All-or-nothing basket; cross-shard baskets go through 2PC.

        A basket touching a salted product merges it back first: 2PC
        prepares exact per-shard quantities, and "enough stock across
        buckets but not in any one" must not abort a basket the unsalted
        cluster would commit.  Admission control never applies here —
        baskets are top-priority traffic and are never shed.
        """
        if not requests:
            raise ConfigurationError("empty basket")
        if self.router.salted_keys():
            for pid in sorted({r.product_id for r in requests}):
                if self.router.is_salted(pid):
                    self.unsalt_product(pid)
                    self.metrics.counter(
                        "cluster.elasticity.basket_unsalts"
                    ).inc()
        quantities: dict[str, dict[str, int]] = {}
        for request in requests:
            owner = self.router.owner_of(request.product_id)
            shard_quantities = quantities.setdefault(owner, {})
            shard_quantities[request.product_id] = (
                shard_quantities.get(request.product_id, 0) + request.quantity
            )
        shards = tuple(sorted(quantities))
        for name in shards:
            if self._is_down(name):
                self.metrics.counter("cluster.failover.rejected_baskets").inc()
                return BasketOutcome(False, f"shard down: {name}", shards)
        if len(shards) == 1:
            committed, reason = self._local_basket(shards[0], quantities[shards[0]])
            self.metrics.counter("cluster.basket.local").inc()
            return BasketOutcome(committed, reason, shards)
        outcome = self.coordinator.execute(quantities)
        self.metrics.counter("cluster.basket.distributed").inc()
        return BasketOutcome(outcome.committed, outcome.reason, shards, outcome)

    def _local_basket(
        self, shard_name: str, quantities: dict[str, int]
    ) -> tuple[bool, str]:
        """Single-shard basket: one MVCC transaction, no network rounds."""
        shard = self.shards[shard_name]
        txn = shard.txn.begin()
        new_stocks: dict[str, int] = {}
        for product_id, quantity in quantities.items():
            product = txn.read_or(product_id)
            if product is None:
                shard.txn.abort(txn)
                return False, f"no such product {product_id!r}"
            stock = product.get("stock", 0)
            if stock < quantity:
                shard.txn.abort(txn)
                return False, f"sold out: {product_id}"
            updated = dict(product)
            updated["stock"] = stock - quantity
            txn.write(product_id, updated)
            new_stocks[product_id] = updated["stock"]
        shard.txn.commit(txn)
        for product_id in new_stocks:
            shard.persist_committed(product_id)
        if self.failover is not None:
            for product_id, stock in new_stocks.items():
                self.failover.log_stock(shard_name, product_id, stock)
        return True, ""

    def get_stock(self, product_id: str) -> int:
        """Stock of ``product_id`` — merge-on-read for salted products:
        the visible stock is the sum over all salt buckets."""
        buckets = self.router.buckets_of(product_id)
        if len(buckets) > 1:
            return sum(self._bucket_stock(bucket) for bucket in buckets)
        return self._bucket_stock(product_id)

    def _bucket_stock(self, product_id: str) -> int:
        owner = self.router.owner_of(product_id)
        if owner in self._down_compute:
            # Disaggregated re-route: read the committed record straight
            # from the shared tier through any live compute node.
            fallback = self._live_shard()
            value = fallback._with_retry(
                lambda: fallback.engine.get_product(product_id)
            )
            if value is None:
                raise KeyNotFoundError(product_id)
            self.metrics.counter("cluster.disagg.rerouted_reads").inc()
            return int(value.get("stock", 0))
        if self._is_down(owner):
            stock = self.failover.replicator.latest_stock(owner, product_id)
            if stock is None:
                raise ConfigurationError(
                    f"product {product_id!r} unknown to replicas of {owner!r}"
                )
            self.metrics.counter("cluster.failover.replica_reads").inc()
            return stock
        return self.shards[owner].get_stock(product_id)

    # -- hot-key salting ----------------------------------------------------
    #
    # A flash sale concentrates the purchase stream on a few products —
    # no matter how many shards join, one shard owns the hot key and
    # melts (the hot-shard problem).  Salting splits a hot product's
    # stock across ``n_buckets`` bucket records whose keys hash to their
    # own ring positions: contention spreads across shards, the visible
    # stock is the merge-on-read sum, and total stock is conserved
    # exactly through split and merge (property-tested).

    def salt_product(self, product_id: str, n_buckets: int) -> list[str]:
        """Split ``product_id``'s stock across ``n_buckets`` salt buckets.

        Bucket 0 keeps the base key (and the first share of stock);
        buckets 1..n-1 are new product records on their own ring
        positions.  Stock splits as evenly as integers allow and sums
        back exactly.  Returns the bucket key list.
        """
        stock = self.get_stock(product_id)  # raises if unknown
        value = self._committed_product(product_id)
        if value is None:
            raise KeyNotFoundError(product_id)
        buckets = self.router.salt_key(product_id, n_buckets)
        share, extra = divmod(stock, len(buckets))
        with self.tracer.span(
            "cluster.salt_product", product=product_id, buckets=n_buckets
        ):
            for i, bucket in enumerate(buckets):
                bucket_value = dict(value)
                bucket_value["stock"] = share + (1 if i < extra else 0)
                self.shards[self.router.owner_of(bucket)].import_product(
                    bucket, bucket_value
                )
        self.metrics.counter("cluster.elasticity.salt_splits").inc()
        return buckets

    def unsalt_product(self, product_id: str) -> int:
        """Merge a salted product back into one record; returns the
        merged stock (exactly the sum of the bucket stocks)."""
        buckets = self.router.buckets_of(product_id)
        if len(buckets) == 1:
            raise ConfigurationError(f"product {product_id!r} is not salted")
        total = 0
        merged: dict | None = None
        with self.tracer.span("cluster.unsalt_product", product=product_id):
            for bucket in buckets:
                value = self._committed_product(bucket)
                if value is not None:
                    total += int(value.get("stock", 0))
                    if merged is None:
                        merged = dict(value)
            for bucket in buckets[1:]:
                self.shards[self.router.owner_of(bucket)].drop_product(bucket)
            self.router.unsalt_key(product_id)
            if merged is None:
                merged = {}
            merged["stock"] = total
            self.shards[self.router.owner_of(product_id)].import_product(
                product_id, merged
            )
        self.metrics.counter("cluster.elasticity.salt_merges").inc()
        return total

    def _committed_product(self, key: str) -> dict | None:
        """Committed product state from the owner's MVCC cache, falling
        back to storage hydration (stateless compute after a remap)."""
        owner = self.router.owner_of(key)
        shard = (
            self._live_shard()
            if owner in self._down_compute
            else self.shards[owner]
        )
        txn = shard.txn.begin()
        value = txn.read_or(key)
        if value is None:
            value = shard._hydrate_product(key)
        return dict(value) if value is not None else None

    def _route_purchase(
        self, request: PurchaseRequest, reserved: dict[str, int]
    ) -> PurchaseRequest:
        """Map a purchase onto its salt bucket (identity when unsalted).

        The shopper's stable hash picks a start bucket — the flash-sale
        crowd spreads across buckets, and a given shopper always starts
        at the same one — then rotation skips exhausted buckets so stock
        stranded in a cold bucket is still sellable.  ``reserved`` tracks
        quantities already routed in this batch on top of committed
        stock, so a batch never oversubscribes one bucket while another
        still has units: as long as *total* stock covers the request,
        some bucket accepts it (the salting property suite holds this
        exact-utilisation bar for unit purchases).
        """
        pid = request.product_id
        if not self.router.is_salted(pid):
            return request
        buckets = self.router.buckets_of(pid)
        start = stable_hash(request.shopper_id) % len(buckets)
        rotation = buckets[start:] + buckets[:start]
        chosen = rotation[0]
        for bucket in rotation:
            try:
                available = (
                    self._bucket_stock(bucket) - reserved.get(bucket, 0)
                )
            except (KeyNotFoundError, ConfigurationError):
                continue
            if available >= request.quantity:
                chosen = bucket
                reserved[chosen] = (
                    reserved.get(chosen, 0) + request.quantity
                )
                break
        self.metrics.counter("cluster.elasticity.salted_routes").inc()
        return replace(request, product_id=chosen)

    # -- failover -----------------------------------------------------------

    def kill_shard(self, name: str, torn_tail_bytes: int = 0) -> None:
        """Crash a shard abruptly (chaos entry point).

        With replica failover on, detection, promotion, and recovery play
        out over subsequent :meth:`tick` calls.  In disaggregated mode the
        compute node simply goes dark — it held no state, so the next
        :meth:`tick` recovers it by re-mounting the storage tier (zero
        data movement; ``torn_tail_bytes`` is meaningless and ignored
        because there is no compute-side WAL to tear).  Either way its
        2PC participant goes silent, so an in-flight basket aborts on the
        prepare round instead of blocking.
        """
        if self.failover is None and self.storage is None:
            raise ConfigurationError(
                "kill_shard requires n_replicas >= 2 or a storage tier"
            )
        if name not in self.shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        if self.storage is not None:
            self._down_compute.add(name)
            self.metrics.counter("cluster.disagg.kills").inc()
        else:
            self.failover.kill(name, torn_tail_bytes=torn_tail_bytes)
        participant = self.coordinator.participants.get(name)
        if participant is not None:
            participant.crashed = True
        self._refresh_shard_gauges()

    # -- rebalancing --------------------------------------------------------

    def add_shard(self, name: str) -> int:
        """Join a fresh shard and migrate the keys it now owns.

        Returns the number of keys (entities + products) that moved — in
        disaggregated mode always 0: joining is a pure ring remap, the
        new compute node reads everything it now owns from the shared
        tier on demand.
        """
        if name in self.shards:
            raise ConfigurationError(f"duplicate shard {name!r}")
        self.flush()  # buffered records route under the old ring otherwise
        shard = self._make_shard(name)
        self.router.add_shard(name)
        self.shards[name] = shard
        self.coordinator.attach_shard(name, shard)
        if self.storage is not None:
            return self._remap_compute()
        moved = self._rebalance()
        if self.failover is not None:
            self._hook_purchase_log(name, shard)
            self.failover.resync()
        return moved

    def remove_shard(self, name: str) -> int:
        """Drain and drop a shard; its keys migrate to their new owners.

        In disaggregated mode nothing drains — the departing compute node
        held only caches — so the return value is always 0.
        """
        if name not in self.shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        if len(self.shards) == 1:
            raise ConfigurationError("cannot remove the last shard")
        if self.failover is not None and self.failover.state(name) != "up":
            raise ConfigurationError(
                f"shard {name!r} is {self.failover.state(name)}; "
                "wait for failover to finish before removing it"
            )
        if name in self._down_compute:
            raise ConfigurationError(
                f"shard {name!r} is down; let the next tick re-mount it "
                "before removing it"
            )
        self.flush()
        self.router.remove_shard(name)
        departing = self.shards.pop(name)
        self.coordinator.detach_shard(name)
        if self.storage is not None:
            return self._remap_compute()
        moved = self._drain(departing)
        if self.failover is not None:
            self.failover.resync()
        self.metrics.counter("cluster.rebalance.moved_keys").inc(moved)
        self._refresh_shard_gauges()
        return moved

    def _remap_compute(self) -> int:
        """Disaggregated membership change: zero keys move; every compute
        node drops its caches so the next access hydrates fresh state
        from the tier under the new ownership map.

        Deferred product write-throughs (parked on storage faults) are
        force-flushed *before* the caches drop: the new owner hydrates
        from the tier, and a stale tier record would resurrect sold
        stock.  A write still failing is surfaced as a counter — the
        oversell hazard is then real and observable, not silent.
        """
        for name, shard in self.shards.items():
            remaining = shard.flush_dirty_products()
            if remaining:
                self.metrics.counter("cluster.disagg.dirty_remaps").inc()
                self.tracer.log(
                    "warning",
                    "remap with unflushed product write-throughs",
                    shard=name,
                    dirty=remaining,
                )
            shard.reset_caches()
        self.metrics.counter("cluster.disagg.remaps").inc()
        self.metrics.counter("cluster.rebalance.moved_keys").inc(0)
        self._refresh_shard_gauges()
        return 0

    def _rebalance(self) -> int:
        """Move every key whose ring owner changed; nothing else moves."""
        moved = 0
        with self.tracer.span("cluster.rebalance"):
            for name in list(self.shards):
                shard = self.shards[name]
                for key in shard.entity_keys():
                    target = self.router.owner_of(key)
                    if target != name:
                        self.shards[target].import_entity(
                            key, shard.export_entity(key)
                        )
                        shard.drop_entity(key)
                        moved += 1
                for product_id, value in shard.catalog_snapshot().items():
                    target = self.router.owner_of(product_id)
                    if target != name:
                        self.shards[target].import_product(product_id, value)
                        shard.drop_product(product_id)
                        moved += 1
        self.metrics.counter("cluster.rebalance.moved_keys").inc(moved)
        self._refresh_shard_gauges()
        return moved

    def _drain(self, departing: MetaversePlatform) -> int:
        moved = 0
        with self.tracer.span("cluster.rebalance", draining=True):
            for key in departing.entity_keys():
                self.shards[self.router.owner_of(key)].import_entity(
                    key, departing.export_entity(key)
                )
                moved += 1
            for product_id, value in departing.catalog_snapshot().items():
                self.shards[self.router.owner_of(product_id)].import_product(
                    product_id, value
                )
                moved += 1
        return moved

    # -- introspection ------------------------------------------------------

    def entity_locations(self) -> dict[str, list[str]]:
        """Which shard(s) serve each entity key — exactly one, invariantly.

        On local engines this is physical placement; on a shared storage
        tier it is ring ownership (every entity lives in the tier and is
        *served* by exactly one compute node).
        """
        if self.storage is not None:
            return {
                key: [self.router.owner_of(key)] for key in self.storage.keys()
            }
        locations: dict[str, list[str]] = {}
        for name, shard in self.shards.items():
            for key in shard.entity_keys():
                locations.setdefault(key, []).append(name)
        return locations

    def compute_makespan(self) -> float:
        """Simulated completion time: shards run in parallel, so the
        cluster finishes when its busiest shard does."""
        return max(shard.compute_makespan() for shard in self.shards.values())

    def compute_throughput(self, n_requests: int) -> float:
        makespan = self.compute_makespan()
        return n_requests / makespan if makespan > 0 else float("inf")

    def _refresh_shard_gauges(self) -> None:
        owned_counts: dict[str, int] | None = None
        if self.storage is not None:
            # One tier sweep instead of a per-shard keys() fan-out: count
            # how many tier keys each compute node currently owns.
            owned_counts = {name: 0 for name in self.shards}
            for key in self.storage.keys():
                owner = self.router.owner_of(key)
                if owner in owned_counts:
                    owned_counts[owner] += 1
            self.storage.refresh_gauges()
        for name, shard in self.shards.items():
            self.metrics.gauge(f"cluster.shard.{name}.entities").set(
                float(owned_counts[name]) if owned_counts is not None
                else float(shard.entity_count())
            )
            # Per-shard resilience state, labeled by shard name: the
            # circuit-breaker position (0/1/2 = closed/half-open/open,
            # previously visible only at platform level) and the failure
            # detector's view (suspicion level + liveness).
            breaker = shard.breaker
            self.metrics.gauge(f"cluster.shard.{name}.breaker_state").set(
                _BREAKER_STATE_CODES.get(breaker.state, 0.0)
                if breaker is not None
                else 0.0
            )
            if self.failover is not None:
                self.metrics.gauge(f"cluster.shard.{name}.alive").set(
                    0.0 if self.failover.is_down(name) else 1.0
                )
                self.metrics.gauge(f"cluster.shard.{name}.phi").set(
                    self.failover.phi(name)
                )
            elif self.storage is not None:
                self.metrics.gauge(f"cluster.shard.{name}.alive").set(
                    0.0 if name in self._down_compute else 1.0
                )

    def _refresh_purchase_gauges(self) -> None:
        for name, shard in self.shards.items():
            self.metrics.gauge(f"cluster.shard.{name}.purchases").set(
                float(sum(e.processed for e in shard.executors))
            )
            self.metrics.gauge(f"cluster.shard.{name}.busy_s").set(
                shard.compute_makespan()
            )
