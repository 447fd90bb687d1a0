"""The benchmark's four workloads, each on its own deployment shape.

A workload object is one episode's inputs: ``__init__`` generates them
from the run's seed and the episode's index, before any timing, so the
timed loop only hands generated inputs to the system.  :meth:`Workload.setup` builds a fresh deployment and loads its
initial state (timed as ``setup_s``); :meth:`Workload.step` runs one
closed-loop step (one client, one thread: the next call is made only
after the previous one returned) and returns the seconds spent inside
the system's calls; :meth:`Workload.check` verifies the program's
outputs after the loop.  The step count is fixed per workload, so every
host-independent count repeats exactly for a seed and episode.
"""

from __future__ import annotations

import random
from collections import defaultdict
from time import perf_counter

from repro import (
    ClusterConfig,
    DataKind,
    DataRecord,
    GeoConfig,
    GeoDeployment,
    GeoSession,
    MetaversePlatform,
    ObservationBatch,
    PlatformCluster,
    RecordBatch,
    ShardRouter,
    Space,
)
from repro.core.errors import ReproError
from repro.fusion import TruthFusion
from repro.geo.deployment import EVENTUAL, LINEARIZABLE, READ_YOUR_WRITES
from repro.query.plane import prefix_query, spatial_query
from repro.semantic import embed_text, semantic_query
from repro.spatial.geometry import BBox
from repro.workloads.marketplace import (
    FlashSaleConfig,
    MarketplaceWorkload,
    PurchaseRequest,
)
from repro.workloads.movement import zipf_sampler
from repro.workloads.retrieval import RetrievalConfig, RetrievalWorkload

#: Upper end of the key space, for "every key under a prefix" scans.
HIGH = "\uffff"


class Samples:
    """What one episode measured and how its operations ended; a run
    merges its episodes' samples."""

    def __init__(self) -> None:
        #: Wall-clock ms of the workload's interactive request.
        self.op_ms: list[float] = []
        #: Wall-clock ms of one tick: handing a tick's data to the system
        #: until it is visible.
        self.tick_ms: list[float] = []
        #: Further wall-clock samples (ms), by the workload's own names.
        self.named: dict[str, list[float]] = defaultdict(list)
        #: Simulated-clock samples (ms): modelled latencies, never rescaled.
        self.sim: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        #: Failed correctness checks; any entry fails the run.
        self.errors: list[str] = []

    def mark(self) -> tuple:
        """Where the wall-clock sample lists end now (see :meth:`rescale`)."""
        return (len(self.op_ms), len(self.tick_ms),
                {k: len(v) for k, v in self.named.items()})

    def rescale(self, mark: tuple, factor: float) -> None:
        """Multiply every wall-clock sample taken since ``mark`` by ``factor``."""
        n_op, n_tick, n_named = mark
        for values, start in [(self.op_ms, n_op), (self.tick_ms, n_tick)] + [
            (v, n_named.get(k, 0)) for k, v in self.named.items()
        ]:
            for i in range(start, len(values)):
                values[i] *= factor

    def series(self, name: str) -> list[float]:
        """``op``, ``tick``, or one of the named or simulated series."""
        if name in ("op", "tick"):
            return getattr(self, f"{name}_ms")
        return self.named.get(name) or self.sim.get(name) or []

    def merge(self, other: "Samples") -> None:
        self.op_ms += other.op_ms
        self.tick_ms += other.tick_ms
        for name, values in other.named.items():
            self.named[name] += values
        for name, values in other.sim.items():
            self.sim[name] += values
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: max(0, 20 - len(self.errors))]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Workload:
    """Protocol of one benchmark workload."""

    name = ""
    why = ""
    #: Closed-loop steps per episode.
    n_steps = 0
    #: Seconds one episode (input generation, set-up, loop, checks) takes
    #: on the reference host; ``--seconds`` is divided by it to size a run.
    episode_s = 1.0
    #: The interactive request behind ``op_p50_ms``/``op_p99_ms``.
    op_name = ""
    #: The workload's own names for its figures: name -> (end-to-end
    #: metric and None, or a :meth:`Samples.series` and its quantile;
    #: unit).  Printed beside the end-to-end metrics.
    named = {}

    def __init__(self, seed: int, episode: int = 0, steps: int | None = None) -> None:
        if steps is not None:
            self.n_steps = steps
        # Episodes of one run get distinct inputs, so a run's percentiles
        # cover more than one draw of queries, keys and windows.
        sub_seed = seed * 1000 + episode
        self.generate(random.Random(f"{self.name}:{sub_seed}"), sub_seed)

    def generate(self, rng: random.Random, seed: int) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def step(self, state, i: int, out: Samples) -> float:
        raise NotImplementedError

    def ops_per_episode(self) -> int:
        raise NotImplementedError

    def check(self, state, out: Samples) -> None:
        raise NotImplementedError

    def counts(self, state) -> dict[str, float]:
        """Host-independent work counts, read from the program's metrics."""
        raise NotImplementedError


def _registry_counts(metrics, names) -> dict[str, float]:
    snapshot = metrics.snapshot()
    return {out: float(snapshot.get(src, 0.0)) for out, src in names.items()}


_COMMON_COUNTS = {
    "storage.rpc_calls": "storage.rpc.calls",
    "storage.rpc_bytes": "storage.rpc.bytes",
    "net.messages_sent": "net.messages_sent",
    "net.bytes_sent": "net.bytes_sent",
    "txn.conflicts": "mvcc.conflicts",
    "txn.commits": "mvcc.commits",
    "kv.gets": "kv.gets",
    "kv.puts": "kv.puts",
    "pool.hits": "pool.hits",
    "pool.misses": "pool.misses",
    "failover.compactions": "cluster.failover.log_compactions",
    "geo.wan_round_trips": "geo.rpc.round_trips",
    "geo.repl_shipped": "geo.repl.shipped",
    "geo.compactions": "geo.repl.compactions",
    "geo.antientropy_rounds": "geo.antientropy.rounds",
}


# -- sensor_ingest ------------------------------------------------------------


class SensorIngest(Workload):
    """Device ticks: conflicting readings → fusion → columnar ingest →
    disaggregated storage, with standing prefix queries refreshed per tick."""

    name = "sensor_ingest"
    why = (
        "ingest -> fusion -> storage on 4 compute x 2 storage nodes: only "
        "here do fusion, columnar ingest and storage RPCs do most of the work"
    )
    op_name = "device tick (fuse + ingest + tick)"
    named = {"ingest_records_per_s": ("ops_per_s", None, "records/s")}
    n_steps = 300
    episode_s = 4.0
    ENTITIES = 600
    PER_TICK = 100
    SOURCES = ("gps", "lidar", "cam")
    ATTRIBUTES = ("x", "y", "temp")
    #: Six standing prefix queries of ten entities each.
    PREFIXES = tuple(f"sensor/00{d}0" for d in range(6))
    DT = 0.05

    def generate(self, rng, seed):
        truth = {
            e: {"x": rng.uniform(0, 1000), "y": rng.uniform(0, 1000),
                "temp": rng.uniform(15, 30)}
            for e in range(self.ENTITIES)
        }
        self.initial = self._records(
            {self.key(e): dict(values) for e, values in truth.items()}, 0.0
        )
        # The third source is biased: fusion has to learn to distrust it.
        bias = {"gps": 0.0, "lidar": 0.0, "cam": 6.0}
        self.batches: list[ObservationBatch] = []
        for step in range(self.n_steps):
            t = (step + 1) * self.DT
            cols = ([], [], [], [], [], [])
            for e in sorted(rng.sample(range(self.ENTITIES), self.PER_TICK)):
                state = truth[e]
                state["x"] += rng.gauss(0, 2)
                state["y"] += rng.gauss(0, 2)
                state["temp"] += rng.gauss(0, 0.1)
                for attribute in self.ATTRIBUTES:
                    for source in self.SOURCES:
                        cols[0].append(self.key(e))
                        cols[1].append(attribute)
                        cols[2].append(
                            state[attribute] + bias[source] + rng.gauss(0, 0.4)
                        )
                        cols[3].append(source)
                        cols[4].append(t)
                        cols[5].append(rng.uniform(0.6, 1.0))
            self.batches.append(ObservationBatch(*cols))

    @staticmethod
    def key(e: int) -> str:
        return f"sensor/{e:05d}"

    @staticmethod
    def _records(payloads: dict[str, dict], t: float) -> list[DataRecord]:
        return [
            DataRecord(key=key, payload=payload, space=Space.PHYSICAL,
                       timestamp=t, kind=DataKind.SENSOR, source="fusion")
            for key, payload in payloads.items()
        ]

    def setup(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=4, n_storage_nodes=2))
        for prefix in self.PREFIXES:
            cluster.register_continuous(prefix, prefix)
        cluster.ingest_batch(RecordBatch.from_records(self.initial))
        cluster.tick(self.DT)
        return {
            "cluster": cluster,
            "fuser": TruthFusion(),
            "expected": {r.key: dict(r.payload) for r in self.initial},
            "results": None,
        }

    def ops_per_episode(self) -> int:
        return self.n_steps * self.PER_TICK

    def step(self, state, i, out):
        cluster = state["cluster"]
        batch = self.batches[i]
        start = perf_counter()
        fused = state["fuser"].fuse_batch(batch)
        payloads: dict[str, dict] = {}
        for (entity, attribute), value in fused.items():
            payloads.setdefault(entity, {})[attribute] = value.value
        records = self._records(payloads, (i + 1) * self.DT)
        cluster.ingest_batch(RecordBatch.from_records(records))
        results = cluster.tick(self.DT)
        elapsed = perf_counter() - start
        out.tick_ms.append(elapsed * 1e3)
        out.op_ms.append(elapsed * 1e3)
        out.attempted += 1
        if any(result.partial for result in results.values()):
            out.fail(f"tick {i}: partial standing-query result")
        state["expected"].update(payloads)
        state["results"] = results
        return elapsed

    def check(self, state, out):
        cluster = state["cluster"]
        engine = next(iter(cluster.shards.values())).engine
        stored = {
            key: value["payload"]
            for key, value in engine.scan("sensor/", "sensor/" + HIGH)
        }
        if stored != state["expected"]:
            out.fail("stored state differs from the fused values ingested")
        for prefix, result in (state["results"] or {}).items():
            direct = engine.scan(prefix, prefix + HIGH)
            if [tuple(item) for item in result.items] != [tuple(i) for i in direct]:
                out.fail(f"standing query {prefix!r} differs from a direct scan")
        # fuse_batch must agree with the per-record reference path.
        reference = TruthFusion().fuse(self.batches[0].to_observations())
        if TruthFusion().fuse_batch(self.batches[0]) != reference:
            out.fail("fuse_batch differs from the per-record fuse")

    def counts(self, state):
        return _registry_counts(state["cluster"].metrics, _COMMON_COUNTS)


# -- flash_sale ---------------------------------------------------------------


class FlashSale(Workload):
    """Zipf-skewed purchase windows plus cross-shard baskets on a 4-shard
    cluster with 2 replicas per shard."""

    name = "flash_sale"
    why = (
        "contended purchases on 4 shards x 2 replicas: MVCC, 2PC baskets and "
        "replica-log shipping and compaction do most of the work"
    )
    op_name = "process_basket (3 items, cross-shard)"
    named = {
        "purchases_per_s": ("ops_per_s", None, "requests/s"),
        "basket_p50_ms": ("op", 0.5, "ms"),
        "basket_p99_ms": ("op", 0.99, "ms"),
        "basket_sim_p99_ms": ("basket_sim_ms", 0.99, "simulated-ms"),
    }
    n_steps = 150
    episode_s = 6.5
    PRODUCTS = 500
    #: Per-product stock: the dozen or so hottest products sell out in an
    #: episode, the rest do not.
    STOCK = 600
    WINDOW_S = 0.1
    RATE = 4000.0
    BASKETS = 2
    #: Basket products come from the cold tail, which never sells out.
    COLD_FROM = 200
    DT = 0.1

    def generate(self, rng, seed):
        config = FlashSaleConfig(
            n_products=self.PRODUCTS, n_shoppers=20000, zipf_skew=1.2,
            base_rate=self.RATE, burst_rate=self.RATE, burst_start=0.0,
            burst_end=0.0, initial_stock=self.STOCK,
        )
        market = MarketplaceWorkload(config, seed=seed)
        self.catalog = market.catalog_records()
        self.windows = [
            market.requests_between(i * self.WINDOW_S, (i + 1) * self.WINDOW_S)
            for i in range(self.n_steps)
        ]
        # Group cold products by owning shard (same ring the cluster
        # builds) so every basket spans at least two shards.
        router = ShardRouter(vnodes=ClusterConfig().vnodes)
        for i in range(4):
            router.add_shard(f"shard-{i}")
        by_shard = defaultdict(list)
        for i in range(self.COLD_FROM, self.PRODUCTS):
            pid = market.product_id(i)
            by_shard[router.owner_of(pid)].append(pid)
        shards = sorted(by_shard)
        self.baskets = []
        for i in range(self.n_steps):
            step = []
            for b in range(self.BASKETS):
                picked = rng.sample(shards, 3)
                step.append([
                    PurchaseRequest(
                        shopper_id=f"basket-{i}-{b}",
                        product_id=rng.choice(by_shard[name]),
                        space=Space.VIRTUAL,
                        timestamp=(i + 1) * self.WINDOW_S,
                    )
                    for name in picked
                ])
            self.baskets.append(step)

    def setup(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=4, n_replicas=2))
        cluster.load_catalog(self.catalog)
        cluster.tick(self.DT)
        return {"cluster": cluster, "outcomes": [], "basket_units": 0}

    def ops_per_episode(self) -> int:
        return sum(len(window) for window in self.windows)

    def step(self, state, i, out):
        cluster = state["cluster"]
        start = perf_counter()
        outcomes = cluster.process_purchases(self.windows[i])
        elapsed = perf_counter() - start
        out.attempted += len(outcomes)
        for outcome in outcomes:
            if outcome.reason == "conflict retries exhausted":
                out.fail(f"window {i}: purchase ran out of conflict retries")
        state["outcomes"].append(outcomes)
        for basket in self.baskets[i]:
            start = perf_counter()
            result = cluster.process_basket(basket)
            took = perf_counter() - start
            elapsed += took
            out.op_ms.append(took * 1e3)
            out.attempted += 1
            if result.txn is not None:
                out.sim["basket_sim_ms"].append(result.txn.total_latency * 1e3)
            if result.committed:
                state["basket_units"] += sum(r.quantity for r in basket)
            elif all(cluster.get_stock(r.product_id) >= r.quantity for r in basket):
                out.fail(f"window {i}: basket aborted with stock left: {result.reason}")
        start = perf_counter()
        cluster.tick(self.DT)
        took = perf_counter() - start
        out.tick_ms.append(took * 1e3)
        return elapsed + took

    def check(self, state, out):
        cluster = state["cluster"]
        sold = sum(
            o.request.quantity for window in state["outcomes"] for o in window
            if o.success
        )
        initial = sum(r.payload["stock"] for r in self.catalog)
        left = sum(cluster.get_stock(r.key) for r in self.catalog)
        if initial - sold - state["basket_units"] != left:
            out.fail(
                f"stock not conserved: {initial} - {sold} - "
                f"{state['basket_units']} != {left}"
            )
        # A single node replaying the same stream must decide every
        # purchase the same way (baskets only touch never-sold-out stock).
        single = MetaversePlatform()
        single.load_catalog(self.catalog)
        for window, outcomes in zip(self.windows, state["outcomes"]):
            expected = single.process_purchases(window)
            if [(o.request, o.success, o.reason) for o in expected] != [
                (o.request, o.success, o.reason) for o in outcomes
            ]:
                out.fail("purchase outcomes differ from a single-node replay")
                break

    def counts(self, state):
        return _registry_counts(state["cluster"].metrics, _COMMON_COUNTS)


# -- scene_query --------------------------------------------------------------


class SceneQuery(Workload):
    """Prefix, spatial and semantic queries over a scene corpus, with
    object moves re-indexed beside the reads."""

    name = "scene_query"
    why = (
        "the read path on 4 local shards with HNSW: query plane, "
        "scatter/merge, spatial filter and ANN search, beside moves"
    )
    op_name = "query round (one prefix, one spatial, one semantic query)"
    named = {
        "queries_per_s": ("ops_per_s", None, "queries/s"),
        "prefix_query_p50_ms": ("prefix_query_ms", 0.5, "ms"),
        "spatial_query_p50_ms": ("spatial_query_ms", 0.5, "ms"),
        "semantic_query_p50_ms": ("semantic_query_ms", 0.5, "ms"),
        "query_p99_ms": ("query_ms", 0.99, "ms"),
    }
    n_steps = 500
    episode_s = 6.5
    OBJECTS = 1500
    MOVE_EVERY = 2
    MOVES = 3
    BOX = 90.0
    SIDE = 1000.0
    RECALL_SAMPLE = 10
    DT = 0.05

    def generate(self, rng, seed):
        corpus = RetrievalWorkload(
            RetrievalConfig(n_objects=self.OBJECTS, n_queries=self.n_steps,
                            area_side=self.SIDE),
            seed=seed,
        )
        self.corpus = corpus.scene_records()
        self.texts = corpus.query_texts()
        payloads = {r.key: dict(r.payload) for r in self.corpus}
        keys = [r.key for r in self.corpus]
        self.steps = []
        for i in range(self.n_steps):
            prefix = f"scene/obj/{rng.randrange(self.OBJECTS // 10):05d}"
            x, y = rng.uniform(0, self.SIDE - self.BOX), rng.uniform(0, self.SIDE - self.BOX)
            box = BBox(x, y, x + self.BOX, y + self.BOX)
            # Expected answers from the benchmark's own copy of the scene
            # as it stands when the queries run, before this step's moves land.
            want_prefix = sorted(k for k in payloads if k.startswith(prefix))
            want_box = sorted(
                k for k, p in payloads.items()
                if box.x_min <= p["x"] <= box.x_max and box.y_min <= p["y"] <= box.y_max
            )
            moves = []
            if i % self.MOVE_EVERY == self.MOVE_EVERY - 1:
                for key in rng.sample(keys, self.MOVES):
                    payload = dict(payloads[key])
                    payload["x"] = min(self.SIDE, max(0.0, payload["x"] + rng.gauss(0, 20)))
                    payload["y"] = min(self.SIDE, max(0.0, payload["y"] + rng.gauss(0, 20)))
                    payloads[key] = payload
                    moves.append(DataRecord(
                        key=key, payload=payload, space=Space.VIRTUAL,
                        timestamp=float(i), kind=DataKind.STRUCTURED,
                        source="mover",
                    ))
            self.steps.append((
                prefix_query(prefix), want_prefix, spatial_query(box), want_box,
                semantic_query(self.texts[i], k=10), moves,
            ))

    def setup(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=4, semantic_index=True))
        cluster.ingest_many(self.corpus)
        cluster.tick(self.DT)
        return {"cluster": cluster, "answers": []}

    def ops_per_episode(self) -> int:
        return 3 * self.n_steps

    def step(self, state, i, out):
        cluster = state["cluster"]
        prefix, want_prefix, spatial, want_box, semantic, moves = self.steps[i]
        elapsed = 0.0
        results = []
        for label, request in (("prefix", prefix), ("spatial", spatial),
                               ("semantic", semantic)):
            start = perf_counter()
            result = cluster.query(request)
            took = perf_counter() - start
            elapsed += took
            out.named["query_ms"].append(took * 1e3)
            out.named[f"{label}_query_ms"].append(took * 1e3)
            out.attempted += 1
            if result.partial:
                out.fail(f"step {i}: partial {label} result")
            results.append(result.items)
        out.op_ms.append(elapsed * 1e3)
        if [k for k, _ in results[0]] != want_prefix:
            out.fail(f"step {i}: prefix result differs from brute force")
        if [k for k, _ in results[1]] != want_box:
            out.fail(f"step {i}: spatial result differs from brute force")
        if i % self.RECALL_SAMPLE == 0:
            state["answers"].append((i, [k for k, _ in results[2]]))
        if moves:
            start = perf_counter()
            cluster.ingest_many(moves)
            cluster.tick(self.DT)
            took = perf_counter() - start
            elapsed += took
            out.tick_ms.append(took * 1e3)
        return elapsed

    def recall_at_10(self, state) -> float:
        """Mean recall of the sampled semantic answers against exact
        search over every shard's live vectors (text embeddings do not
        change when an object moves, so the oracle is time-invariant)."""
        shards = list(state["cluster"].shards.values())
        hits = total = 0
        for i, got in state["answers"]:
            vector = embed_text(self.texts[i])
            exact = sorted(
                (pair for shard in shards for pair in shard.semantic.exact_search(vector, 10)),
                key=lambda pair: (-pair[1], pair[0]),
            )[:10]
            want = {k for k, _ in exact}
            hits += len(want & set(got))
            total += len(want)
        return hits / total if total else 1.0

    def check(self, state, out):
        recall = self.recall_at_10(state)
        state["recall"] = recall
        if recall < 0.95:
            out.fail(f"semantic recall@10 {recall:.3f} < 0.95")

    def counts(self, state):
        cluster = state["cluster"]
        counts = _registry_counts(cluster.metrics, _COMMON_COUNTS)
        indexes = [shard.semantic for shard in cluster.shards.values()]
        counts["semantic.distance_evals"] = float(sum(ix.distance_evals for ix in indexes))
        counts["semantic.graph_nodes"] = float(sum(ix.hnsw.node_count for ix in indexes))
        counts["semantic.live_keys"] = float(sum(len(ix) for ix in indexes))
        counts["semantic.recall_at_10"] = state["recall"]
        return counts


# -- geo_sessions -------------------------------------------------------------


class GeoSessions(Workload):
    """One session per region writing avatar positions (forwarded to each
    key's home region) and reading them back under three consistency
    modes, across 3 regions of 2-shard clusters."""

    name = "geo_sessions"
    why = (
        "3 regions x 2 shards over a simulated WAN: geo replication, "
        "anti-entropy and consistency-mode reads run only here"
    )
    op_name = "session round (one session's 10 writes and 12 reads in a step)"
    named = {
        "session_ops_per_s": ("ops_per_s", None, "ops/s"),
        "read_sim_p99_ms": ("read_sim_ms", 0.99, "simulated-ms"),
    }
    n_steps = 100
    episode_s = 7.0
    #: 3 x 400 keys: each region's 2 shards hold ~600 keys apiece, more
    #: than a shard's 256-page buffer pool, so reads both hit and miss.
    KEYS_PER_SESSION = 400
    WRITES = 10
    READS = {EVENTUAL: 6, READ_YOUR_WRITES: 3, LINEARIZABLE: 3}
    #: Home-log compaction threshold: low enough that every episode
    #: cycles through several compactions (the 4096 default would need
    #: ~11k session writes before the first one).
    COMPACT_AT = 1024
    ZIPF = 0.9
    DT = 0.05

    def generate(self, rng, seed):
        self.regions = GeoConfig().regions
        n = self.KEYS_PER_SESSION
        self.keys = {
            region: [f"avatar/{region}/{k:05d}" for k in range(n)]
            for region in self.regions
        }
        all_keys = [k for region in self.regions for k in self.keys[region]]
        self.seed_records = [self._record(key, rng, 0.0) for key in all_keys]
        own = {
            region: zipf_sampler(n, self.ZIPF, seed=rng.randrange(1 << 30))
            for region in self.regions
        }
        anyone = zipf_sampler(len(all_keys), self.ZIPF, seed=rng.randrange(1 << 30))
        shuffled = list(all_keys)
        rng.shuffle(shuffled)
        self.steps = []
        for i in range(self.n_steps):
            t = (i + 1) * self.DT
            ops = []
            for region in self.regions:
                written = []
                for _ in range(self.WRITES):
                    key = self.keys[region][own[region]()]
                    written.append(key)
                    ops.append(("write", region, self._record(key, rng, t)))
                for mode, count in self.READS.items():
                    for _ in range(count):
                        if mode == READ_YOUR_WRITES:
                            key = rng.choice(written)
                        else:
                            key = shuffled[anyone()]
                        ops.append((mode, region, key))
            self.steps.append(ops)

    @staticmethod
    def _record(key: str, rng: random.Random, t: float) -> DataRecord:
        return DataRecord(
            key=key,
            payload={"x": round(rng.uniform(0, 1000), 3),
                     "y": round(rng.uniform(0, 1000), 3)},
            space=Space.VIRTUAL, timestamp=t, kind=DataKind.SENSOR,
            source="session",
        )

    def setup(self):
        geo = GeoDeployment(GeoConfig(
            cluster=ClusterConfig(n_shards=2), compact_threshold=self.COMPACT_AT,
        ))
        for record in self.seed_records:
            geo.write_record(record)
        while geo.max_replication_lag():
            geo.tick(self.DT)
        return {
            "geo": geo,
            "sessions": {region: GeoSession() for region in self.regions},
            "oracle": {r.key: r.payload for r in self.seed_records},
            "mine": {region: {} for region in self.regions},
            "max_lag": 0,
        }

    def ops_per_episode(self) -> int:
        return sum(len(ops) for ops in self.steps)

    def step(self, state, i, out):
        geo = state["geo"]
        oracle = state["oracle"]
        rounds: dict[str, float] = defaultdict(float)
        for kind, region, arg in self.steps[i]:
            session = state["sessions"][region]
            out.attempted += 1
            if kind == "write":
                start = perf_counter()
                geo.write_record(arg, region=region, session=session)
                took = perf_counter() - start
                oracle[arg.key] = arg.payload
                state["mine"][region][arg.key] = arg.payload
            else:
                before = geo.clock.now
                start = perf_counter()
                try:
                    value = geo.read(arg, consistency=kind, region=region,
                                     session=session)
                except ReproError as exc:
                    value = None
                    out.fail(f"step {i}: {kind} read of {arg} raised {exc!r}")
                took = perf_counter() - start
                out.sim["read_sim_ms"].append((geo.clock.now - before) * 1e3)
                got = value["payload"] if isinstance(value, dict) else None
                if kind == READ_YOUR_WRITES and got != state["mine"][region][arg]:
                    out.fail(f"step {i}: read_your_writes of {arg} missed the session's write")
                if kind == LINEARIZABLE and got != oracle[arg]:
                    out.fail(f"step {i}: linearizable read of {arg} is stale")
            rounds[region] += took
        out.op_ms.extend(took * 1e3 for took in rounds.values())
        # Sampled before the tick delivers this step's replication.
        state["max_lag"] = max(state["max_lag"], geo.max_replication_lag())
        start = perf_counter()
        geo.tick(self.DT)
        took = perf_counter() - start
        out.tick_ms.append(took * 1e3)
        return sum(rounds.values()) + took

    def check(self, state, out):
        geo = state["geo"]
        for _ in range(200):
            geo.tick(self.DT)
            if not geo.max_replication_lag():
                break
        geo.tick(geo.config.antientropy_interval_s)
        for region in self.regions:
            for key, payload in state["oracle"].items():
                value = geo.read(key, consistency=EVENTUAL, region=region)
                if value["payload"] != payload:
                    out.fail(f"{region} still serves a stale {key} after drain")
                    return

    def counts(self, state):
        geo = state["geo"]
        counts = _registry_counts(geo.metrics, _COMMON_COUNTS)
        counts["geo.max_replication_lag"] = float(state["max_lag"])
        return counts


WORKLOADS = {w.name: w for w in (SensorIngest, FlashSale, SceneQuery, GeoSessions)}
