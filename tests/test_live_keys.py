"""Live key sets and exact key-range bounds.

* **The KV store's live key set** equals the merged, tombstone-free view
  of memtable + runs under any interleaving of writes, deletes, memtable
  flushes, compactions, checkpoint loads, WAL recovery and injected
  ``kv.put`` crashes; the tiered engine's count (warm + cold) matches its
  key listing through demotion, promotion and recovery.
* **Shard gauges** (``cluster.shard.<name>.entities``) equal the entities
  each shard serves after every flush, on local, failover, tiered and
  disaggregated deployments.
* **Keys at the top of the code space** — starting with U+FFFF or a
  character outside the BMP — are listed, checkpointed, migrated and
  matched by prefix queries like any other key.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import DataKind, DataRecord, Space
from repro.core.errors import FaultInjectedError
from repro.platform import MetaversePlatform
from repro.query.plane import prefix_query
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.storage import KVStore, LifecyclePolicy, TieredStorageEngine
from repro.storage.kv import _TOMBSTONE, prefix_successor, scan_prefix
from repro.world import make_organization

#: Characters at both ends of the code space, including U+FFFF and two
#: outside the BMP, so generated keys cross every old sentinel bound.
KEY_CHARS = "ab\uffff\U0001F600\U0010FFFF"
keys = st.text(alphabet=KEY_CHARS, min_size=1, max_size=3)
CRASH_KEY = "boom"


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


def merged_live_keys(kv: KVStore) -> list[str]:
    """Memtable + runs, newest version first, tombstones removed."""
    newest = {}
    for source in [kv._memtable, *kv._runs]:  # newest first
        for key, cell in source.items():
            newest.setdefault(key, cell)
    return sorted(k for k, cell in newest.items() if cell.value is not _TOMBSTONE)


def assert_live_set(kv: KVStore, model: dict) -> None:
    listed = kv.keys()
    assert listed == merged_live_keys(kv) == sorted(model)
    assert len(kv) == len(listed)
    assert dict(kv.scan("", None)) == model


# -- the KV store's live key set ---------------------------------------------

kv_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, st.integers(0, 99)),
        st.tuples(
            st.just("mput"),
            st.lists(st.tuples(keys, st.integers(0, 99)), max_size=4),
            st.none(),
        ),
        st.tuples(st.just("delete"), keys, st.none()),
        st.tuples(
            st.sampled_from(["flush", "compact", "snapshot", "recover", "crash"]),
            st.none(),
            st.none(),
        ),
    ),
    max_size=40,
)


class TestKVLiveKeySet:
    @staticmethod
    def _store(faults, wal=None):
        return KVStore(memtable_budget_bytes=48, max_runs=2, wal=wal, faults=faults)

    @settings(max_examples=60, deadline=None)
    @given(ops=kv_ops)
    def test_live_set_matches_merged_view_under_any_history(self, ops):
        faults = FaultInjector(
            FaultPlan([FaultRule("kv.put", "crash", 1.0, target=CRASH_KEY)])
        )
        kv = self._store(faults)
        checkpoint = None
        model: dict[str, int] = {}
        for op, arg, value in ops:
            if op == "put":
                kv.put(arg, value)
                model[arg] = value
            elif op == "mput":
                kv.mput(arg)
                model.update(arg)
            elif op == "delete":
                kv.delete(arg)
                model.pop(arg, None)
            elif op == "flush":
                kv.flush()
            elif op == "compact":
                kv.compact()
            elif op == "snapshot":
                # A checkpoint: the snapshot plus a fresh WAL for the suffix.
                checkpoint = kv.snapshot_state()
                kv = self._store(faults)
                kv.load_snapshot(checkpoint)
            elif op == "recover":
                fresh = self._store(faults, wal=kv.wal)
                if checkpoint is not None:
                    fresh.load_snapshot(checkpoint)
                fresh.recover()
                kv = fresh
            else:
                # An injected crash fires before any state changes, for a
                # single put and for a group that contains the key.
                with pytest.raises(FaultInjectedError):
                    kv.put(CRASH_KEY, 1)
                with pytest.raises(FaultInjectedError):
                    kv.mput([("a", 1), (CRASH_KEY, 2)])
            assert_live_set(kv, model)

    def test_keys_above_the_bmp_are_listed_and_checkpointed(self):
        kv = KVStore(memtable_budget_bytes=64)
        top = ["\uffff", "\uffffz", "\U0001F600/obj/1", "\U0010FFFF\U0010FFFF"]
        for i, key in enumerate(["a", *top]):
            kv.put(key, i)
        kv.delete("\uffffz")
        expected = ["a", "\uffff", "\U0001F600/obj/1", "\U0010FFFF\U0010FFFF"]
        assert kv.keys() == expected and len(kv) == 4
        restored = KVStore()
        assert restored.load_snapshot(kv.snapshot_state()) == 4
        assert restored.keys() == expected
        assert restored.get("\U0001F600/obj/1") == 3


# -- the tiered engine: warm + cold ------------------------------------------


class TestTieredKeyCount:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "mput", "delete", "get", "age", "recover"]),
                keys,
            ),
            max_size=30,
        )
    )
    def test_count_is_warm_plus_cold_through_demote_and_promote(self, ops):
        engine = TieredStorageEngine(
            policy=LifecyclePolicy(
                hot_ttl_s=1.0, warm_ttl_s=2.0, checkpoint_interval_ops=5
            )
        )
        model: dict[str, int] = {}
        for i, (op, key) in enumerate(ops):
            if op == "put":
                engine.put(key, i)
                model[key] = i
            elif op == "mput":
                engine.mput([(key, i), (key + "a", i)])
                model.update({key: i, key + "a": i})
            elif op == "delete":
                engine.delete(key)
                model.pop(key, None)
            elif op == "get" and key in model:
                assert engine.get(key) == model[key]  # promotes a cold key
            elif op == "age":
                engine.clock.advance(5.0)
                engine.maintain()  # demotes every idle warm key
            elif op == "recover":
                engine.recover()
            assert engine.keys() == sorted(model)
            assert engine.key_count() == len(model)
            assert dict(engine.scan("", None)) == model


# -- shard gauges on every deployment shape ------------------------------------


def tiered_cluster():
    cluster = PlatformCluster(ClusterConfig(n_shards=3))
    policy = LifecyclePolicy(hot_ttl_s=0.05, warm_ttl_s=0.1)
    for name in list(cluster.shards):
        cluster.install_shard(
            name,
            MetaversePlatform(
                metrics=cluster.metrics,
                tracer=cluster.tracer,
                engine=TieredStorageEngine(
                    policy=policy, clock=cluster.clock, metrics=cluster.metrics
                ),
            ),
        )
    return cluster


SHAPES = {
    "local": lambda: PlatformCluster(ClusterConfig(n_shards=3)),
    "failover": lambda: PlatformCluster(ClusterConfig(n_shards=3, n_replicas=2)),
    "tiered": tiered_cluster,
    "disaggregated": lambda: PlatformCluster(
        ClusterConfig(n_shards=3, n_storage_nodes=2)
    ),
}


def assert_gauges_match(cluster) -> None:
    gauge = cluster.metrics.gauge
    if cluster.storage is None:
        for name, shard in cluster.shards.items():
            assert gauge(f"cluster.shard.{name}.entities").value == len(
                shard.entity_keys()
            )
        return
    # On a shared tier every shard serves the tier keys it owns.
    owned = Counter(homes[0] for homes in cluster.entity_locations().values())
    for name in cluster.shards:
        assert gauge(f"cluster.shard.{name}.entities").value == owned[name]
    for name, node in cluster.storage.nodes.items():
        assert gauge(f"storage.node.{name}.entities").value == len(
            node.engine.keys()
        )


cluster_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.lists(keys, min_size=1, max_size=6)),
        st.tuples(st.sampled_from(["flush", "tick", "join", "leave"]), st.none()),
    ),
    min_size=1,
    max_size=12,
)


class TestShardGauges:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @settings(max_examples=25, deadline=None)
    @given(ops=cluster_ops)
    def test_entities_gauge_matches_after_every_flush(self, shape, ops):
        cluster = SHAPES[shape]()
        joined = 0
        for op, arg in ops:
            if op == "ingest":
                cluster.ingest_many([record(key, {"v": 1}) for key in arg])
                continue
            if op == "flush":
                cluster.flush()
            elif op == "tick":
                cluster.tick(0.05)
            elif op == "join":
                joined += 1
                cluster.add_shard(f"joiner-{joined}")
            elif len(cluster.shards) > 1:
                cluster.remove_shard(sorted(cluster.shards)[0])
            assert_gauges_match(cluster)


# -- keys at the top of the code space through a cluster -----------------------


class TestTopOfCodeSpaceKeys:
    KEYS = [f"\U0001F600/obj/{i}" for i in range(60)]

    def test_remove_shard_migrates_keys_outside_the_bmp(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=3))
        cluster.ingest_many([record(key, {"v": i}) for i, key in enumerate(self.KEYS)])
        cluster.flush()
        cluster.remove_shard("shard-0")
        for i, key in enumerate(self.KEYS):
            assert cluster.read(key)["payload"] == {"v": i}
        total = sum(
            cluster.metrics.gauge(f"cluster.shard.{name}.entities").value
            for name in cluster.shards
        )
        assert total == len(self.KEYS)


# -- exact prefix bounds -------------------------------------------------------


class TestPrefixBounds:
    def test_successor(self):
        assert prefix_successor("scene/") == "scene0"
        assert prefix_successor("a\U0010FFFF") == "b"
        assert prefix_successor("") is None
        assert prefix_successor("\U0010FFFF\U0010FFFF") is None

    @settings(max_examples=80, deadline=None)
    @given(stored=st.lists(keys, max_size=12), prefix=st.text(KEY_CHARS, max_size=2))
    def test_scan_prefix_is_exactly_startswith(self, stored, prefix):
        kv = KVStore()
        for key in stored:
            kv.put(key, 0)
        got = [key for key, _ in scan_prefix(kv.scan, prefix)]
        assert got == sorted({key for key in stored if key.startswith(prefix)})

    def test_prefix_query_sees_keys_above_the_bmp(self):
        scene = ["scene/a", "scene/\U0001F600", "scene/\uffffz"]
        platform = MetaversePlatform()
        cluster = PlatformCluster(ClusterConfig(n_shards=3))
        for target in (platform, cluster):
            target.ingest_many(
                [record(key, {"v": 1}) for key in [*scene, "scene0", "scenf"]]
            )
            target.tick(1.0)
            rows = target.query(prefix_query("scene/")).items
            assert [key for key, _ in rows] == sorted(scene)

    def test_organizations_match_prefixes_above_the_bmp(self):
        records = [
            record(key, {"v": i}, timestamp=float(i))
            for i, key in enumerate(["p/a", "p/\U0001F600", "p/\uffff", "q"])
        ]
        for name in ("tagged-unified", "separate", "hybrid"):
            org = make_organization(name)
            for rec in records:
                org.put(rec)
            assert len(org.query_cross("p/")) == 3
