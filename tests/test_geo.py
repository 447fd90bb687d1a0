"""Functional tests for the geo-distributed deployment (repro.geo).

Covers the multi-region surface end to end: home placement and shared
clocks, async WAN replication (lag, hinted handoff, anti-entropy), the
three per-call consistency modes and their failure semantics during WAN
partitions and region kills, follow-the-user re-homing atomicity, and
geo-level fan-out gathers.  The chaos class (nightly tier) drives the
partition/heal cycle under seeded ``geo.wan`` fault plans across three
seeds.
"""

import pytest

from repro import DataKind, DataRecord, Space
from repro.cluster import ClusterConfig, ShardReplicator, ShardRouter
from repro.core import ConfigurationError, NetworkError
from repro.core.errors import DeadlineExceededError, PartitionedError
from repro.geo import (
    CONSISTENCY_MODES,
    EVENTUAL,
    LINEARIZABLE,
    READ_YOUR_WRITES,
    GeoConfig,
    GeoDeployment,
    GeoSession,
)
from repro.ledger import MerkleTree
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

pytestmark = pytest.mark.geo

REGIONS = ("us-east", "eu-west", "ap-south")
WAN_LATENCIES = {
    ("us-east", "eu-west"): 0.04,
    ("us-east", "ap-south"): 0.09,
    ("eu-west", "ap-south"): 0.07,
}


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.LOCATION, source="test",
    )


def make_geo(faults=None, **overrides):
    config = GeoConfig(
        regions=REGIONS, wan_latencies_s=dict(WAN_LATENCIES), **overrides
    )
    return GeoDeployment(config, faults=faults)


def others(geo, home):
    return [name for name in geo.config.regions if name != home]


def make_workload(seed=1, n_products=12, initial_stock=10):
    return MarketplaceWorkload(
        FlashSaleConfig(
            n_products=n_products, n_shoppers=60, initial_stock=initial_stock,
            burst_rate=120.0, burst_start=0.0, burst_end=10.0, zipf_skew=1.0,
        ),
        seed=seed,
    )


class TestConstruction:
    def test_regions_share_one_clock(self):
        geo = make_geo()
        clocks = {id(cluster.clock) for cluster in geo._clusters.values()}
        assert clocks == {id(geo.clock)}

    def test_single_region_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(regions=("solo",)))

    def test_duplicate_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(regions=("a", "b", "a")))

    def test_unknown_latency_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(
                regions=("a", "b"), wan_latencies_s={("a", "ghost"): 0.1}
            ))

    def test_per_region_elasticity_rejected(self):
        from repro.cluster.config import ElasticityConfig

        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(
                cluster=ClusterConfig(elasticity=ElasticityConfig())
            ))

    def test_home_assignment_is_deterministic_and_total(self):
        geo_a, geo_b = make_geo(), make_geo()
        keys = [f"player-{i:04d}" for i in range(50)]
        homes_a = [geo_a.home_of(k) for k in keys]
        assert homes_a == [geo_b.home_of(k) for k in keys]
        assert set(homes_a) <= set(REGIONS)

    def test_unknown_client_region_rejected(self):
        geo = make_geo()
        with pytest.raises(ConfigurationError):
            geo.read("k", EVENTUAL, region="atlantis")


class TestReplication:
    def test_write_replicates_after_a_tick(self):
        geo = make_geo()
        lsn = geo.write_record(record("player-0001", {"x": 1.0, "y": 2.0}))
        assert lsn == 1
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        # Asynchronous: the remote copy lags until deliveries run.
        assert geo.replicator.lag(home, remote) == 1
        assert geo.read("player-0001", EVENTUAL, region=remote) is None
        geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"] == {"x": 1.0, "y": 2.0}

    def test_staleness_tracks_oldest_missing_entry(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        geo.partition_regions([[home], others(geo, home)])
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(1.0)
        assert geo.replicator.staleness_s(home, remote, geo.clock.now) == (
            pytest.approx(1.0)
        )
        geo.heal_wan()
        geo.tick(1.0)
        assert geo.replicator.staleness_s(home, remote, geo.clock.now) == 0.0

    def test_hinted_handoff_preserves_order_through_partition(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        geo.partition_regions([[home], others(geo, home)])
        for i in range(5):
            geo.write_record(record("player-0001", {"x": float(i), "y": 0.0}))
        assert geo.metrics.counter("geo.repl.hints_buffered").value > 0
        geo.heal_wan()
        geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"]["x"] == 4.0
        assert geo.metrics.counter("geo.repl.hints_delivered").value > 0

    def test_dropped_entry_leaves_hole_until_antientropy(self):
        plan = FaultPlan(rules=[
            FaultRule(site="geo.wan", kind="drop", rate=1.0, end=0.2),
        ], seed=3)
        geo = make_geo(faults=FaultInjector(plan))
        geo.write_record(record("player-0001", {"x": 7.0, "y": 7.0}))
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        assert geo.metrics.counter("geo.repl.dropped").value > 0
        geo.tick(0.3)  # past the fault window, before anti-entropy fires
        assert geo.replicator.lag(home, remote) == 1
        geo.tick(0.3)  # crosses the anti-entropy interval
        assert geo.replicator.lag(home, remote) == 0
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"]["x"] == 7.0
        assert geo.metrics.counter("geo.antientropy.repaired_entries").value > 0

    def test_compaction_collapses_superseded_states(self):
        geo = make_geo(compact_threshold=8)
        for i in range(12):
            geo.write_record(record("player-0001", {"x": float(i), "y": 0.0}))
            geo.tick(0.1)
        home = geo.home_of("player-0001")
        assert geo.metrics.counter("geo.repl.compactions").value > 0
        entries = geo.replicator.primary_entries(home)
        assert len(entries) < 12  # superseded absolute states dropped
        for remote in others(geo, home):
            value = geo.read("player-0001", EVENTUAL, region=remote)
            assert value["payload"]["x"] == 11.0


@pytest.fixture
def leaves_hashed(monkeypatch):
    """Counts ``MerkleTree.append`` calls: one per leaf hashed."""
    calls = []
    append = MerkleTree.append

    def counting(self, data):
        calls.append(data)
        return append(self, data)

    monkeypatch.setattr(MerkleTree, "append", counting)
    return calls


class TestAntiEntropyWork:
    """Anti-entropy hashes only what was written since its last round,
    and the write path hashes nothing."""

    def test_round_hashes_only_new_leaves(self, leaves_hashed):
        plan = FaultPlan(rules=[
            FaultRule(site="geo.wan", kind="drop", rate=1.0, end=0.2),
        ], seed=3)
        geo = make_geo(faults=FaultInjector(plan))
        for i in range(40):
            geo.write_record(record(f"player-{i:04d}", {"x": float(i)}))
        geo.tick(0.5)  # one anti-entropy round repairs every dropped entry
        assert geo.metrics.counter("geo.antientropy.rounds").value > 0
        assert geo.max_replication_lag() == 0
        leaves_hashed.clear()
        geo.tick(0.5)  # a round with no new writes
        assert leaves_hashed == []
        k = 5
        home = geo.home_of("player-0001")
        for i in range(k):
            geo.write_record(record("player-0001", {"x": 100.0 + i}))
        assert leaves_hashed == []  # logging and shipping hash nothing
        geo.tick(0.5)  # delivers the k entries, then runs a round
        assert geo.max_replication_lag() == 0
        # The k new entries, once in the primary and once in each copy.
        assert len(leaves_hashed) == k * len(REGIONS)
        assert set(leaves_hashed) == {
            f"{e.lsn}:".encode() + e.payload
            for e in geo.replicator.primary_entries(home)[-k:]
        }

    def test_shard_log_op_hashes_nothing(self, leaves_hashed):
        rep = ShardReplicator(ShardRouter(["a", "b", "c"]), n_replicas=2)
        for i in range(50):
            rep.log_op("a", {"op": "entity", "k": f"k{i}", "v": i})
        assert leaves_hashed == []
        assert rep.sync_owner("a") is False
        assert len(leaves_hashed) == 3 * 50  # union target + two copies
        leaves_hashed.clear()
        rep.log_op("a", {"op": "entity", "k": "k50", "v": 50})
        assert leaves_hashed == []


class TestConsistencyModes:
    def test_eventual_read_is_local_latency(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        remote = others(geo, geo.home_of("player-0001"))[0]
        before = geo.clock.now
        geo.read("player-0001", EVENTUAL, region=remote)
        assert geo.clock.now == before  # no WAN round trip

    def test_linearizable_read_pays_the_round_trip(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        one_way = WAN_LATENCIES.get((home, remote)) or WAN_LATENCIES[(remote, home)]
        before = geo.clock.now
        value = geo.read("player-0001", LINEARIZABLE, region=remote)
        elapsed = geo.clock.now - before
        assert value["payload"] == {"x": 1.0, "y": 1.0}
        assert elapsed >= 2 * one_way  # there and back again

    def test_linearizable_sees_unreplicated_write(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 5.0, "y": 5.0}))
        remote = others(geo, geo.home_of("player-0001"))[0]
        # No tick yet: the remote replica is empty, the home is not.
        assert geo.read("player-0001", EVENTUAL, region=remote) is None
        value = geo.read("player-0001", LINEARIZABLE, region=remote)
        assert value["payload"] == {"x": 5.0, "y": 5.0}

    def test_read_your_writes_upgrades_until_caught_up(self):
        geo = make_geo()
        session = GeoSession()
        geo.write_record(record("player-0001", {"x": 3.0, "y": 3.0}),
                         session=session)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        assert session.vector == {home: 1}
        # Replica behind the session vector: the read must upgrade.
        value = geo.read("player-0001", READ_YOUR_WRITES, region=remote,
                         session=session)
        assert value["payload"] == {"x": 3.0, "y": 3.0}
        assert geo.metrics.counter("geo.read.ryw_upgraded").value == 1
        geo.tick(0.5)
        # Caught up: the same read is now served locally.
        value = geo.read("player-0001", READ_YOUR_WRITES, region=remote,
                         session=session)
        assert value["payload"] == {"x": 3.0, "y": 3.0}
        assert geo.metrics.counter("geo.read.ryw_local").value == 1

    def test_sessionless_ryw_reads_locally(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        remote = others(geo, geo.home_of("player-0001"))[0]
        geo.read("player-0001", READ_YOUR_WRITES, region=remote)
        assert geo.metrics.counter("geo.read.ryw_local").value == 1
        assert geo.metrics.counter("geo.read.ryw_upgraded").value == 0

    def test_unknown_mode_rejected(self):
        geo = make_geo()
        with pytest.raises(ConfigurationError):
            geo.read("k", "strong-ish")
        assert set(CONSISTENCY_MODES) == {
            EVENTUAL, READ_YOUR_WRITES, LINEARIZABLE
        }

    def test_per_mode_latency_histograms_are_recorded(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        remote = others(geo, geo.home_of("player-0001"))[0]
        geo.read("player-0001", EVENTUAL, region=remote)
        geo.read("player-0001", LINEARIZABLE, region=remote)
        eventual = geo.metrics.histogram("geo.read.latency.eventual")
        linearizable = geo.metrics.histogram("geo.read.latency.linearizable")
        assert eventual.count == 1 and linearizable.count == 1
        assert linearizable.p50() > eventual.p50()


class TestPartitionRouting:
    def split(self, geo, home):
        geo.partition_regions([[home], others(geo, home)])

    def test_linearizable_fails_fast_during_partition(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        before = geo.clock.now
        with pytest.raises(DeadlineExceededError):
            geo.read("player-0001", LINEARIZABLE, region=remote)
        # Fail fast: bounded by the linearizable deadline, not hung.
        assert geo.clock.now - before <= geo.config.linearizable_timeout_s + 1e-9

    def test_breaker_trips_after_repeated_failures(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        durations = []
        for _ in range(geo.config.breaker_failure_threshold + 2):
            before = geo.clock.now
            with pytest.raises(DeadlineExceededError):
                geo.read("player-0001", LINEARIZABLE, region=remote)
            durations.append(geo.clock.now - before)
        # Once open, the breaker rejects instantly (no retry burn-down).
        assert durations[-1] == 0.0 and durations[0] > 0.0

    def test_eventual_stays_available_during_partition(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"] == {"x": 1.0, "y": 1.0}

    def test_forwarded_write_fails_fast_during_partition(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        with pytest.raises(PartitionedError):
            geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}),
                             region=remote)


class TestRegionLifecycle:
    def test_purchases_to_down_home_fail_fast(self):
        geo = make_geo()
        workload = make_workload()
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        requests = workload.requests_between(0.0, 2.0)
        victim = geo.home_of(requests[0].product_id)
        geo.kill_region(victim)
        outcomes = geo.process_purchases(requests)
        assert len(outcomes) == len(requests)
        down = [o for o in outcomes if not o.success and "region down" in o.reason]
        assert down and all(
            geo.home_of(o.request.product_id) == victim for o in down
        )
        live = [o for o in outcomes if geo.home_of(o.request.product_id) != victim]
        assert any(o.success for o in live)

    def test_deferred_ingest_lands_after_restart(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        geo.kill_region(home)
        assert geo.write_record(record("player-0001", {"x": 8.0, "y": 8.0})) is None
        assert geo.metrics.counter("geo.writes.deferred").value == 1
        geo.restart_region(home)
        geo.tick(0.5)
        for region in geo.config.regions:
            value = geo.read("player-0001", EVENTUAL, region=region)
            assert value["payload"] == {"x": 8.0, "y": 8.0}

    def test_reads_from_down_client_region_raise(self):
        geo = make_geo()
        geo.kill_region(REGIONS[1])
        with pytest.raises(NetworkError):
            geo.read("k", EVENTUAL, region=REGIONS[1])

    def test_double_kill_and_bad_restart_rejected(self):
        geo = make_geo()
        geo.kill_region(REGIONS[0])
        with pytest.raises(ConfigurationError):
            geo.kill_region(REGIONS[0])
        with pytest.raises(ConfigurationError):
            geo.restart_region(REGIONS[1])

    def test_kill_restart_reconverges_exactly_once(self):
        geo = make_geo()
        workload = make_workload(seed=7)
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        pids = [workload.product_id(i) for i in range(12)]
        initial = {p: geo.get_stock(p, LINEARIZABLE) for p in pids}
        sold = {p: 0 for p in pids}
        victim = "eu-west"
        t = 0.0
        for step in range(16):
            if step == 5:
                geo.kill_region(victim)
            if step == 11:
                geo.restart_region(victim)
            for outcome in geo.process_purchases(
                workload.requests_between(t, t + 0.5)
            ):
                if outcome.success:
                    sold[outcome.request.product_id] += outcome.request.quantity
            t += 0.5
            geo.tick(0.5)
        for _ in range(3):
            geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        for pid in pids:
            remaining = initial[pid] - sold[pid]
            assert geo.get_stock(pid, LINEARIZABLE) == remaining
            for region in geo.config.regions:
                assert geo.get_stock(pid, EVENTUAL, region=region) == remaining


class TestRehoming:
    def test_rehome_entity_moves_authority(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        old = geo.home_of("player-0001")
        new = others(geo, old)[0]
        assert geo.rehome_entity("player-0001", new) == new
        assert geo.home_of("player-0001") == new
        geo.write_record(record("player-0001", {"x": 2.0, "y": 2.0}))
        geo.tick(0.5)
        for region in geo.config.regions:
            value = geo.read("player-0001", EVENTUAL, region=region)
            assert value["payload"] == {"x": 2.0, "y": 2.0}
        assert geo.metrics.counter("geo.rehomes").value == 1

    def test_rehome_is_idempotent_to_same_region(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        home = geo.home_of("player-0001")
        assert geo.rehome_entity("player-0001", home) == home
        assert geo.metrics.counter("geo.rehomes").value == 0

    def test_rehome_product_conserves_stock(self):
        geo = make_geo()
        workload = make_workload(seed=3)
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        pid = workload.product_id(0)
        old = geo.home_of(pid)
        new = others(geo, old)[0]
        before = geo.get_stock(pid, LINEARIZABLE)
        geo.rehome_product(pid, new)
        geo.tick(0.5)
        assert geo.home_of(pid) == new
        assert geo.get_stock(pid, LINEARIZABLE) == before
        outcomes = geo.process_purchases(workload.requests_between(0.0, 1.0))
        sold = sum(
            o.request.quantity for o in outcomes
            if o.success and o.request.product_id == pid
        )
        geo.tick(0.5)
        for region in geo.config.regions:
            assert geo.get_stock(pid, EVENTUAL, region=region) == before - sold

    def test_rehome_aborts_atomically_during_partition(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        old = geo.home_of("player-0001")
        new = others(geo, old)[0]
        geo.partition_regions([[old], others(geo, old)])
        with pytest.raises(PartitionedError):
            geo.rehome_entity("player-0001", new)
        assert geo.home_of("player-0001") == old  # nothing moved
        assert geo.metrics.counter("geo.rehome.aborted").value == 1
        geo.heal_wan()
        assert geo.rehome_entity("player-0001", new) == new

    def test_rehome_to_down_region_rejected(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        old = geo.home_of("player-0001")
        new = others(geo, old)[0]
        geo.kill_region(new)
        with pytest.raises(NetworkError):
            geo.rehome_entity("player-0001", new)
        assert geo.home_of("player-0001") == old


class TestGeoGather:
    def test_scan_prefix_yields_each_key_exactly_once(self):
        geo = make_geo()
        keys = [f"asset/{i:03d}" for i in range(30)]
        for key in keys:
            geo.write_record(record(key, {"v": 1}))
        geo.tick(0.5)  # replicas now also hold copies of every key
        result = geo.scan_prefix("asset/")
        assert [key for key, _ in result.items] == sorted(keys)
        assert not result.partial

    def test_down_region_makes_gather_partial_with_region_name(self):
        geo = make_geo()
        for i in range(30):
            geo.write_record(record(f"asset/{i:03d}", {"v": 1}))
        geo.tick(0.5)
        geo.kill_region("ap-south")
        result = geo.scan_prefix("asset/")
        assert result.partial and "ap-south" in result.failed_shards
        surviving = {key for key, _ in result.items}
        expected = {
            f"asset/{i:03d}" for i in range(30)
            if geo.home_of(f"asset/{i:03d}") != "ap-south"
        }
        assert surviving == expected
        assert geo.metrics.counter("geo.gather.partial").value == 1


@pytest.mark.chaos
class TestGeoChaos:
    """Region-down read routing under seeded WAN chaos (satellite 3)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_partition_routing_and_reconvergence(self, seed):
        plan = FaultPlan(rules=[
            # Background WAN flakiness on top of the hard partition.
            FaultRule(site="geo.wan", kind="drop", rate=0.05),
        ], seed=seed)
        geo = make_geo(faults=FaultInjector(plan))
        # Enough stock that commits keep flowing during the partition
        # window (lag must visibly grow before heal).
        workload = make_workload(seed=seed, initial_stock=60)
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        pids = [workload.product_id(i) for i in range(12)]
        initial = {p: geo.get_stock(p, LINEARIZABLE) for p in pids}
        sold = {p: 0 for p in pids}
        isolated = "ap-south"
        survivors = [r for r in REGIONS if r != isolated]
        t = 0.0

        def run_sale(steps):
            nonlocal t
            for _ in range(steps):
                for outcome in geo.process_purchases(
                    workload.requests_between(t, t + 0.5)
                ):
                    if outcome.success:
                        sold[outcome.request.product_id] += (
                            outcome.request.quantity
                        )
                t += 0.5
                geo.tick(0.5)

        run_sale(4)
        geo.partition_regions([[isolated], survivors])
        # During the partition: eventual reads of isolated-home keys are
        # served by a surviving region's replica...
        iso_pids = [p for p in pids if geo.home_of(p) == isolated]
        assert iso_pids, "seeded catalog should place products everywhere"
        for pid in iso_pids:
            stock = geo.get_stock(pid, EVENTUAL, region=survivors[0])
            assert stock >= 0
        # ...while linearizable reads fail fast instead of lying.
        with pytest.raises(DeadlineExceededError):
            geo.get_stock(iso_pids[0], LINEARIZABLE, region=survivors[0])
        run_sale(4)
        assert geo.max_replication_lag() > 0  # the partition showed up
        geo.heal_wan()
        run_sale(4)
        for _ in range(4):
            geo.tick(0.5)
        # Post-heal anti-entropy reconvergence: every copy agrees and the
        # sale conserved stock exactly-once through the chaos.
        assert geo.max_replication_lag() == 0
        for pid in pids:
            remaining = initial[pid] - sold[pid]
            assert geo.get_stock(pid, LINEARIZABLE) == remaining
            for region in REGIONS:
                assert geo.get_stock(pid, EVENTUAL, region=region) == remaining
        assert geo.metrics.counter("geo.antientropy.rounds").value > 0
