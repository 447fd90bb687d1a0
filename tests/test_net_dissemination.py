"""Tests for coherency-bounded dissemination and priority scheduling."""

import random

import pytest

from repro.core import ConfigurationError
from repro.net import (
    CoherencySource,
    CoherencySubscription,
    DisseminationTree,
    PriorityScheduler,
)
from repro.obs import Tracer


class TestCoherencySource:
    def test_first_update_always_pushed(self):
        source = CoherencySource()
        source.subscribe(CoherencySubscription("s1", "obj", epsilon=5.0))
        assert source.update("obj", 10.0) == ["s1"]

    def test_small_drift_suppressed(self):
        source = CoherencySource()
        source.subscribe(CoherencySubscription("s1", "obj", epsilon=5.0))
        source.update("obj", 10.0)
        assert source.update("obj", 12.0) == []
        assert source.update("obj", 16.0) == ["s1"]

    def test_zero_epsilon_pushes_everything(self):
        source = CoherencySource()
        source.subscribe(CoherencySubscription("s1", "obj", epsilon=0.0))
        source.update("obj", 1.0)
        assert source.update("obj", 1.0001) == ["s1"]

    def test_incoherency_never_exceeds_epsilon_after_update(self):
        source = CoherencySource()
        eps = 2.0
        source.subscribe(CoherencySubscription("s1", "obj", epsilon=eps))
        rng = random.Random(1)
        value = 0.0
        for _ in range(500):
            value += rng.uniform(-1, 1)
            source.update("obj", value)
            assert source.incoherency("obj", "s1") <= eps

    def test_different_subscribers_different_bounds(self):
        source = CoherencySource()
        source.subscribe(CoherencySubscription("tight", "obj", epsilon=0.5))
        source.subscribe(CoherencySubscription("loose", "obj", epsilon=10.0))
        source.update("obj", 0.0)
        pushed = source.update("obj", 1.0)
        assert pushed == ["tight"]

    def test_larger_epsilon_fewer_messages(self):
        counts = {}
        rng = random.Random(7)
        walk = []
        value = 0.0
        for _ in range(1000):
            value += rng.uniform(-1, 1)
            walk.append(value)
        for eps in [0.0, 1.0, 5.0]:
            source = CoherencySource()
            source.subscribe(CoherencySubscription("s", "obj", epsilon=eps))
            for v in walk:
                source.update("obj", v)
            counts[eps] = source.metrics.counter("coherency.pushes").value
        assert counts[0.0] > counts[1.0] > counts[5.0]

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            CoherencySubscription("s", "o", epsilon=-1)

    def test_unseen_pair_incoherency_infinite(self):
        source = CoherencySource()
        assert source.incoherency("obj", "nobody") == float("inf")

    def test_max_incoherency_across_subscribers(self):
        source = CoherencySource()
        source.subscribe(CoherencySubscription("a", "obj", epsilon=1.0))
        source.subscribe(CoherencySubscription("b", "obj", epsilon=3.0))
        source.update("obj", 0.0)
        source.update("obj", 2.0)  # pushes to a only
        assert source.max_incoherency("obj") == 2.0


class TestDisseminationTree:
    def build(self):
        tree = DisseminationTree()
        tree.add_node("root", None)
        tree.add_node("r1", "root")
        tree.add_node("r2", "root")
        tree.add_node("leaf-a", "r1", epsilon=1.0)
        tree.add_node("leaf-b", "r1", epsilon=5.0)
        tree.add_node("leaf-c", "r2", epsilon=10.0)
        tree.finalize()
        return tree

    def test_first_update_reaches_all_leaves(self):
        tree = self.build()
        assert sorted(tree.update(0.0)) == ["leaf-a", "leaf-b", "leaf-c"]

    def test_interior_filtering_suppresses_whole_subtrees(self):
        tree = self.build()
        tree.update(0.0)
        reached = tree.update(2.0)  # > leaf-a's 1.0, < leaf-b's 5, < leaf-c's 10
        assert reached == ["leaf-a"]
        # r2's whole subtree was suppressed with a single check.
        assert tree.metrics.counter("tree.link_suppressed").value >= 2

    def test_leaf_incoherency_bounded(self):
        tree = self.build()
        value = 0.0
        rng = random.Random(3)
        for _ in range(300):
            value += rng.uniform(-2, 2)
            tree.update(value)
            assert tree.leaf_incoherency("leaf-a", value) <= 1.0
            assert tree.leaf_incoherency("leaf-b", value) <= 5.0
            assert tree.leaf_incoherency("leaf-c", value) <= 10.0

    def test_two_roots_rejected(self):
        tree = DisseminationTree()
        tree.add_node("root", None)
        with pytest.raises(ConfigurationError):
            tree.add_node("root2", None)

    def test_unknown_parent_rejected(self):
        tree = DisseminationTree()
        with pytest.raises(ConfigurationError):
            tree.add_node("x", "ghost")

    def test_update_before_finalize_safe(self):
        tree = DisseminationTree()
        tree.add_node("root", None)
        tree.add_node("leaf", "root", epsilon=1.0)
        tree.finalize()
        assert tree.update(1.0) == ["leaf"]


class TestPriorityScheduler:
    def test_priority_order_within_budget(self):
        sched = PriorityScheduler()
        sched.enqueue("bulk", priority=2, size_bytes=100, now=0.0)
        sched.enqueue("critical", priority=0, size_bytes=100, now=0.0)
        sent = sched.drain(now=1.0, budget_bytes=100)
        assert [d.label for d in sent] == ["critical"]

    def test_fifo_baseline_ignores_priority(self):
        sched = PriorityScheduler(fifo=True)
        sched.enqueue("bulk", priority=2, size_bytes=100, now=0.0)
        sched.enqueue("critical", priority=0, size_bytes=100, now=0.0)
        sent = sched.drain(now=1.0, budget_bytes=100)
        assert [d.label for d in sent] == ["bulk"]

    def test_latency_recorded(self):
        sched = PriorityScheduler()
        sched.enqueue("x", priority=0, size_bytes=10, now=2.0)
        sent = sched.drain(now=5.0, budget_bytes=100)
        assert sent[0].latency == 3.0

    def test_budget_respected(self):
        sched = PriorityScheduler()
        for i in range(10):
            sched.enqueue(f"m{i}", priority=0, size_bytes=100, now=0.0)
        sent = sched.drain(now=1.0, budget_bytes=350)
        assert len(sent) == 3
        assert len(sched) == 7

    def test_critical_latency_flat_under_load(self):
        """E2 shape: with strict priority, critical stays fast while bulk queues."""
        sched = PriorityScheduler()
        now = 0.0
        for tick in range(50):
            now = float(tick)
            sched.enqueue("critical", priority=0, size_bytes=100, now=now)
            for _ in range(5):
                sched.enqueue("bulk", priority=2, size_bytes=100, now=now)
            sched.drain(now=now, budget_bytes=300)  # half the offered load
        latencies = sched.latencies_by_priority()
        assert max(latencies[0]) <= 1.0
        assert max(latencies[2]) > 5.0

    def test_drain_leaves_one_finished_span(self):
        tracer = Tracer()
        sched = PriorityScheduler(tracer=tracer)
        sched.enqueue("x", priority=0, size_bytes=10, now=0.0)
        sched.drain(now=1.0, budget_bytes=100)
        spans = tracer.spans_named("net.scheduler_drain")
        assert len(spans) == 1
        assert spans[0].end is not None

    def test_invalid_enqueue_rejected(self):
        sched = PriorityScheduler()
        with pytest.raises(ConfigurationError):
            sched.enqueue("x", priority=-1, size_bytes=10, now=0.0)
        with pytest.raises(ConfigurationError):
            sched.enqueue("x", priority=0, size_bytes=0, now=0.0)


class TestOutageBuffer:
    def test_online_delivers_live(self):
        from repro.net import OutageBuffer

        buffer = OutageBuffer()
        assert buffer.offer("obj", 1.0)
        assert buffer.delivered_live == 1

    def test_offline_updates_collapse_per_object(self):
        from repro.net import OutageBuffer

        buffer = OutageBuffer()
        buffer.disconnect()
        for value in [1.0, 2.0, 3.0]:
            assert not buffer.offer("obj", value)
        batch = buffer.reconnect()
        assert batch == [("obj", 3.0)]  # only the latest survives
        assert buffer.replay_savings() == pytest.approx(2 / 3)

    def test_replay_ordered_by_priority(self):
        from repro.net import OutageBuffer

        buffer = OutageBuffer()
        buffer.disconnect()
        buffer.offer("bulk", 1.0, priority=5)
        buffer.offer("critical", 2.0, priority=0)
        batch = buffer.reconnect()
        assert [object_id for object_id, _ in batch] == ["critical", "bulk"]

    def test_latest_value_wins_slot_keeps_critical_priority(self):
        from repro.net import OutageBuffer

        buffer = OutageBuffer()
        buffer.disconnect()
        buffer.offer("obj", 1.0, priority=5)
        buffer.offer("obj", 2.0, priority=0)   # raises the slot's criticality
        buffer.offer("obj", 3.0, priority=9)   # latest value still supersedes
        buffer.offer("bulk", 9.0, priority=4)
        batch = buffer.reconnect()
        # obj replays first (slot priority 0) and carries the latest value.
        assert batch == [("obj", 3.0), ("bulk", 9.0)]

    def test_reconnect_resumes_live_delivery(self):
        from repro.net import OutageBuffer

        buffer = OutageBuffer()
        buffer.disconnect()
        buffer.offer("obj", 1.0)
        buffer.reconnect()
        assert buffer.offer("obj", 2.0)

    def test_empty_reconnect(self):
        from repro.net import OutageBuffer

        buffer = OutageBuffer()
        buffer.disconnect()
        assert buffer.reconnect() == []
        assert buffer.replay_savings() == 0.0
