"""Tests for semantic retrieval (repro.semantic): deterministic
embeddings, the from-scratch HNSW index, the query-plane modality, and
end-to-end behaviour through the platform / cluster / geo layers.

The Hypothesis properties pin the three invariants the benchmark leans
on: tombstoned keys never resurface (and re-inserted ones always do),
recall against the brute-force oracle clears a floor on seeded gaussian
corpora, and the scatter-gather merge is partition-invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import ConfigurationError, DataKind, DataRecord, Space
from repro.platform import MetaversePlatform
from repro.query.plane import QueryPlan
from repro.semantic import (
    HNSWIndex,
    SemanticIndex,
    SemanticIndexConfig,
    SemanticModality,
    brute_force_topk,
    embed_payload,
    embed_text,
    embed_tokens,
    indexed_vector,
    normalize,
    payload_tokens,
    semantic_query,
    tokenize,
)

pytestmark = pytest.mark.semantic


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


WORDS = (
    "red blue green wooden stone glass chair table lamp statue vase "
    "carpet kitchen garden lobby tower bridge fountain"
).split()


def scene_payload(i):
    return {
        "name": f"object {i}",
        "tags": [WORDS[i % len(WORDS)], WORDS[(i * 7 + 3) % len(WORDS)]],
        "room": WORDS[(i * 5) % len(WORDS)],
    }


class TestEmbeddings:
    def test_tokenize_is_lowercase_alphanumeric(self):
        assert tokenize("Red CHAIR, 2nd floor!") == ["red", "chair", "2nd", "floor"]

    def test_payload_tokens_ignore_numeric_telemetry(self):
        tokens = payload_tokens(
            {"x": 3.0, "stock": 7, "tags": ["red", 42, "chair"], "room": "lobby"}
        )
        assert tokens == ["lobby", "red", "chair"]

    def test_payload_tokens_are_insertion_order_independent(self):
        a = payload_tokens({"a": "red", "b": "chair"})
        b = payload_tokens({"b": "chair", "a": "red"})
        assert a == b

    def test_embedding_is_deterministic_and_normalized(self):
        v1 = embed_text("red wooden chair")
        v2 = embed_text("red wooden chair")
        assert v1 is not v2 and np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0)

    def test_numeric_only_payload_embeds_to_none(self):
        assert embed_payload({"x": 1.0, "y": 2.0, "v": 3}) is None
        assert embed_tokens([]) is None

    def test_similar_phrases_score_higher_than_disjoint_ones(self):
        query = embed_text("red chair")
        near = embed_text("red chair kitchen")
        far = embed_text("stone fountain garden")
        assert float(query @ near) > float(query @ far)


class TestHNSW:
    def build(self, n, dim=16, seed=7, **kwargs):
        rng = np.random.default_rng(seed)
        index = HNSWIndex(dim=dim, **kwargs)
        vectors = {}
        for i in range(n):
            vec = rng.normal(size=dim)
            index.add(f"k/{i:03d}", vec)
            vectors[f"k/{i:03d}"] = normalize(vec)
        return index, vectors

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=0)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8, m=1)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8, m=8, ef_construction=4)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8).search(np.ones(8), k=0)
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8).add("k", np.zeros(8))
        with pytest.raises(ConfigurationError):
            HNSWIndex(dim=8).add("k", np.ones(4))

    def test_small_corpus_search_is_exact(self):
        index, vectors = self.build(40)
        query = np.random.default_rng(99).normal(size=16)
        keys = sorted(vectors)
        matrix = np.stack([vectors[key] for key in keys])
        exact = brute_force_topk(keys, matrix, query, 5)
        got = index.search(query, 5, ef=64)
        assert [k for k, _ in got] == [k for k, _ in exact]
        for (_, score), (_, want) in zip(got, exact):
            assert score == pytest.approx(want)

    def test_remove_tombstones_and_readd_resurrects(self):
        index, vectors = self.build(20)
        target = index.search(vectors["k/003"], 1)[0][0]
        assert target == "k/003"
        index.remove("k/003")
        assert "k/003" not in index
        assert len(index) == 19 and index.node_count == 20
        hits = [k for k, _ in index.search(vectors["k/003"], 20, ef=64)]
        assert "k/003" not in hits
        index.add("k/003", vectors["k/003"])
        assert index.search(vectors["k/003"], 1)[0][0] == "k/003"
        with pytest.raises(ConfigurationError):
            index.remove("nope")
        assert index.discard("nope") is False

    def test_levels_derive_from_the_key_alone(self):
        empty, busy = HNSWIndex(dim=8), self.build(40, dim=8)[0]
        for i in range(40):
            assert empty.level_for(f"k/{i}") == busy.level_for(f"k/{i}")

    def test_search_keys_are_insertion_order_independent_at_full_beam(self):
        """With the beam covering the whole corpus the returned *keys*
        (the deterministic contract E31 pins) do not depend on insertion
        order; scores may differ in the last ulp from BLAS batching."""
        rng = np.random.default_rng(3)
        vectors = {f"k/{i}": rng.normal(size=8) for i in range(30)}
        forward, backward = HNSWIndex(dim=8), HNSWIndex(dim=8)
        for key in sorted(vectors):
            forward.add(key, vectors[key])
        for key in sorted(vectors, reverse=True):
            backward.add(key, vectors[key])
        query = rng.normal(size=8)
        a, b = forward.search(query, 10, ef=64), backward.search(query, 10, ef=64)
        assert [k for k, _ in a] == [k for k, _ in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == pytest.approx(sb, abs=1e-12)

    def test_distance_evals_count_work(self):
        index, vectors = self.build(64)
        before = index.distance_evals
        index.search(np.ones(16), 5)
        assert index.distance_evals > before

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 11)),
            min_size=1, max_size=40,
        )
    )
    def test_insert_delete_round_trip(self, ops):
        """After any op sequence, search returns exactly the live keys —
        tombstones never resurface, re-inserted keys always do."""
        rng = np.random.default_rng(17)
        vectors = {f"k/{i}": rng.normal(size=8) for i in range(12)}
        index = HNSWIndex(dim=8)
        live = set()
        for op, i in ops:
            key = f"k/{i}"
            if op == "add":
                index.add(key, vectors[key])
                live.add(key)
            else:
                assert index.discard(key) == (key in live)
                live.discard(key)
        assert set(index.keys()) == live
        if live:
            hits = index.search(rng.normal(size=8), len(live) + 4, ef=128)
            assert {k for k, _ in hits} == live

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(30, 120))
    def test_recall_floor_vs_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        index = HNSWIndex(dim=12, m=8, ef_construction=64, ef_search=48)
        keys, rows = [], []
        for i in range(n):
            vec = rng.normal(size=12)
            index.add(f"k/{i:03d}", vec)
            keys.append(f"k/{i:03d}")
            rows.append(normalize(vec))
        matrix = np.stack(rows)
        query = rng.normal(size=12)
        exact = {k for k, _ in brute_force_topk(keys, matrix, query, 10)}
        got = {k for k, _ in index.search(query, 10, ef=48)}
        assert len(got & exact) / 10 >= 0.9

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 24),
        n_parts=st.integers(1, 5),
        k=st.integers(1, 12),
    )
    def test_merge_is_partition_invariant(self, data, n, n_parts, k):
        """SemanticModality.merge gives the same top-k no matter how the
        scored items are split across shards."""
        rng = np.random.default_rng(5)
        items = [(f"k/{i:03d}", float(rng.normal())) for i in range(n)]
        assignment = data.draw(
            st.lists(st.integers(0, n_parts - 1), min_size=n, max_size=n)
        )
        partials = [[] for _ in range(n_parts)]
        for item, part in zip(items, assignment):
            partials[part].append(item)
        modality = SemanticModality()
        plan = QueryPlan("semantic", {"k": k})
        merged = modality.merge(partials, plan)
        assert merged == modality.merge([items], plan)
        assert merged == sorted(items, key=lambda p: (-p[1], p[0]))[:k]


class TestSemanticIndex:
    def test_index_record_skips_and_evicts_numeric_payloads(self):
        index = SemanticIndex()
        assert index.index_record("a", {"name": "red chair"}) is True
        assert "a" in index and len(index) == 1
        # Updated to pure telemetry: evicted from the graph.
        assert index.index_record("a", {"x": 1.0}) is False
        assert "a" not in index and len(index) == 0
        assert index.index_record("b", {"v": 7}) is False

    @staticmethod
    def _moved_corpus():
        index = SemanticIndex()
        for i in range(24):
            index.index_record(f"s/{i:02d}", {**scene_payload(i), "x": 1.0})
        return index

    def test_position_only_rewrite_touches_no_graph_state(self):
        index = self._moved_corpus()
        nodes, evals = index.hnsw.node_count, index.distance_evals
        for i in range(24):
            moved = {**scene_payload(i), "x": 2.0 + i, "y": -1.0}
            assert index.index_record(f"s/{i:02d}", moved) is True
        assert index.hnsw.node_count == nodes
        assert index.distance_evals == evals
        assert len(index) == 24

    def test_changed_description_still_reinserts(self):
        index = self._moved_corpus()
        nodes = index.hnsw.node_count
        index.index_record("s/03", {"name": "green glass fountain", "x": 1.0})
        assert index.hnsw.node_count == nodes + 1
        assert len(index) == 24
        hits = index.search(embed_text("green glass fountain"), 1, ef=64)
        assert hits[0][0] == "s/03"

    def test_describable_to_numeric_is_still_evicted(self):
        index = self._moved_corpus()
        assert index.index_record("s/05", {"x": 3.0, "y": 4.0}) is False
        assert "s/05" not in index and len(index) == 23
        # The unchanged description of a neighbour is still a no-op.
        nodes = index.hnsw.node_count
        index.index_record("s/06", {**scene_payload(6), "x": 9.0})
        assert index.hnsw.node_count == nodes

    def test_skip_compares_against_the_row_add_would_store(self):
        # ``add`` normalizes the already-normalized indexed vector again;
        # for this key that second pass changes some last bits, so a
        # comparison against ``indexed_vector`` itself would never match.
        key, payload = "obj/3", {"name": "red chair 3"}
        vector = indexed_vector(key, payload)
        assert vector.tobytes() != normalize(vector).tobytes()
        index = SemanticIndex()
        index.index_record("obj/0", {"name": "blue table"})
        index.index_record(key, payload)
        nodes, evals = index.hnsw.node_count, index.distance_evals
        index.index_record(key, {**payload, "x": 5.0})
        assert (index.hnsw.node_count, index.distance_evals) == (nodes, evals)

    def test_exact_search_matches_hnsw_on_small_corpus(self):
        index = SemanticIndex()
        for i in range(24):
            index.index_record(f"s/{i:02d}", scene_payload(i))
        query = embed_text("red chair lobby")
        got, exact = index.search(query, 5, ef=64), index.exact_search(query, 5)
        assert [k for k, _ in got] == [k for k, _ in exact]
        for (_, score), (_, want) in zip(got, exact):
            assert score == pytest.approx(want)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SemanticIndexConfig(dim=0).validate()
        with pytest.raises(ConfigurationError):
            SemanticIndexConfig(m=1).validate()
        with pytest.raises(ConfigurationError):
            SemanticIndexConfig(ef_search=0).validate()


class TestModality:
    def test_plan_validation(self):
        modality = SemanticModality()
        with pytest.raises(ConfigurationError, match="k >= 1"):
            modality.plan(semantic_query("chair", k=0))
        with pytest.raises(ConfigurationError, match="'text' or"):
            modality.plan(semantic_query())

    def test_rewrite_embeds_text_once_at_plan_time(self):
        modality = SemanticModality()
        plan = modality.rewrite(modality.plan(semantic_query("red chair")))
        assert np.array_equal(plan.params["vector"], embed_text("red chair"))

    def test_unembeddable_text_returns_empty_not_garbage(self):
        platform = MetaversePlatform(semantic_index=True)
        platform.ingest(record("s/0", scene_payload(0)))
        platform.tick(1.0)
        result = platform.query(semantic_query("''..!!"))
        assert result.items == []


class TestDeploymentIntegration:
    def seed(self, plane, n=24):
        plane.ingest_many(
            [record(f"s/{i:02d}", scene_payload(i)) for i in range(n)]
        )
        plane.tick(1.0)
        return plane

    def test_platform_search_requires_the_index(self):
        platform = MetaversePlatform()
        with pytest.raises(ConfigurationError, match="semantic_index"):
            platform.semantic_search(np.ones(64), 5)

    def test_platform_drop_entity_evicts_from_index(self):
        platform = self.seed(MetaversePlatform(semantic_index=True))
        top = platform.query(semantic_query("red chair", k=3)).items
        victim = top[0][0]
        platform.drop_entity(victim)
        keys = [k for k, _ in platform.query(semantic_query("red chair", k=24)).items]
        assert victim not in keys

    def test_cluster_topk_identical_one_vs_two_shards(self):
        one = self.seed(
            PlatformCluster(config=ClusterConfig(n_shards=1, semantic_index=True))
        )
        two = self.seed(
            PlatformCluster(config=ClusterConfig(n_shards=2, semantic_index=True))
        )
        request = semantic_query("wooden table garden", k=6, ef=64)
        a, b = one.query(request), two.query(request)
        assert [k for k, _ in a.items] == [k for k, _ in b.items]
        for (_, sa), (_, sb) in zip(a.items, b.items):
            assert sa == pytest.approx(sb, abs=1e-12)

    def test_semantic_index_config_flows_through_cluster(self):
        cluster = PlatformCluster(
            config=ClusterConfig(
                n_shards=2, semantic_index=SemanticIndexConfig(dim=32)
            )
        )
        self.seed(cluster)
        assert all(
            shard.semantic.config.dim == 32 for shard in cluster.shards.values()
        )
        assert len(cluster.query(semantic_query("red chair", dim=32, k=4)).items) == 4

    def test_semantic_index_rejects_disaggregated_mode(self):
        with pytest.raises(ConfigurationError, match="semantic_index"):
            ClusterConfig(n_shards=2, n_storage_nodes=2, semantic_index=True).validate()

    def test_columnar_batch_update_evicts_describable_records(self):
        """The columnar batch path carries numeric fields only, so a
        batch update of a previously-describable key evicts it (the same
        describable→numeric eviction rule as per-record updates)."""
        from repro.core import RecordBatch

        platform = self.seed(MetaversePlatform(semantic_index=True), n=8)
        assert len(platform.semantic) == 8
        platform.ingest_batch(
            RecordBatch.from_records([record("s/03", {"x": 1.0, "y": 2.0})])
        )
        platform.tick(1.0)
        assert len(platform.semantic) == 7 and "s/03" not in platform.semantic
        keys = [k for k, _ in platform.query(semantic_query("red chair", k=8)).items]
        assert "s/03" not in keys
