"""Tests for the batched query engine."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serving import InMemoryVectorStore, QueryEngine


@pytest.fixture
def populated():
    rng = np.random.default_rng(7)
    ids = [f"h{i}" for i in range(25)]
    outgoing = rng.random((25, 4))
    incoming = rng.random((25, 4))
    store = InMemoryVectorStore(dimension=4)
    store.put_many(ids, outgoing, incoming)
    return ids, outgoing, incoming, QueryEngine(store)


class TestQueryShapes:
    def test_point_matches_dot_product(self, populated):
        ids, outgoing, incoming, engine = populated
        expected = float(outgoing[3] @ incoming[11])
        assert engine.point(ids[3], ids[11]) == pytest.approx(expected)

    def test_one_to_many_matches_pointwise(self, populated):
        ids, outgoing, incoming, engine = populated
        destinations = ids[5:15]
        batched = engine.one_to_many(ids[0], destinations)
        expected = [float(outgoing[0] @ incoming[i]) for i in range(5, 15)]
        np.testing.assert_allclose(batched, expected)

    def test_many_to_one_matches_pointwise(self, populated):
        ids, outgoing, incoming, engine = populated
        sources = ids[:6]
        batched = engine.many_to_one(sources, ids[20])
        expected = [float(outgoing[i] @ incoming[20]) for i in range(6)]
        np.testing.assert_allclose(batched, expected)

    def test_pairs_matches_pointwise(self, populated):
        ids, outgoing, incoming, engine = populated
        sources = [ids[i] for i in (0, 5, 5, 13)]
        destinations = [ids[i] for i in (9, 2, 5, 0)]
        values = engine.pairs(sources, destinations)
        expected = [
            engine.point(s, d) for s, d in zip(sources, destinations)
        ]
        np.testing.assert_allclose(values, expected)

    def test_pairs_misaligned_rejected(self, populated):
        ids, _, _, engine = populated
        with pytest.raises(ValidationError):
            engine.pairs([ids[0]], [ids[1], ids[2]])

    def test_pairs_counts_one_query(self, populated):
        ids, _, _, engine = populated
        engine.reset_counters()
        engine.pairs(ids[:6], ids[6:12])
        assert engine.queries_served == 1
        assert engine.pairs_evaluated == 6

    def test_many_to_many_matches_matrix_product(self, populated):
        ids, outgoing, incoming, engine = populated
        rows, cols = [2, 4, 6], [1, 3]
        block = engine.many_to_many([ids[i] for i in rows], [ids[j] for j in cols])
        np.testing.assert_allclose(block, outgoing[rows] @ incoming[cols].T)
        assert block.shape == (3, 2)


class TestKNearest:
    def test_returns_k_smallest_sorted(self, populated):
        ids, outgoing, incoming, engine = populated
        distances = incoming @ outgoing[0]
        result = engine.k_nearest(ids[0], 5)
        assert len(result) == 5
        values = [value for _, value in result]
        assert values == sorted(values)
        # matches a brute-force ranking (excluding the source itself)
        brute = sorted(
            (float(distances[i]), ids[i]) for i in range(1, 25)
        )[:5]
        assert [host for host, _ in result] == [host for _, host in brute]

    def test_excludes_self_by_default(self, populated):
        ids, _, _, engine = populated
        result = engine.k_nearest(ids[0], 30)
        assert ids[0] not in [host for host, _ in result]
        assert len(result) == 24

    def test_include_self(self, populated):
        ids, _, _, engine = populated
        result = engine.k_nearest(ids[0], 30, include_self=True)
        assert ids[0] in [host for host, _ in result]

    def test_candidate_pool_restriction(self, populated):
        ids, _, _, engine = populated
        pool = ids[10:13]
        result = engine.k_nearest(ids[0], 10, candidate_ids=pool)
        assert {host for host, _ in result} == set(pool)

    def test_invalid_k(self, populated):
        ids, _, _, engine = populated
        with pytest.raises(ValidationError):
            engine.k_nearest(ids[0], 0)

    def test_empty_pool(self, populated):
        ids, _, _, engine = populated
        assert engine.k_nearest(ids[0], 3, candidate_ids=[ids[0]]) == []


class TestCounters:
    def test_counters_track_served_pairs(self, populated):
        ids, _, _, engine = populated
        engine.point(ids[0], ids[1])
        engine.one_to_many(ids[0], ids[1:5])
        engine.many_to_many(ids[:3], ids[:4])
        assert engine.queries_served == 3
        assert engine.pairs_evaluated == 1 + 4 + 12
        engine.reset_counters()
        assert engine.queries_served == 0
        assert engine.pairs_evaluated == 0


class TestCounterThreadSafety:
    def test_no_lost_increments_under_concurrency(self, populated):
        import threading

        ids, _, _, engine = populated
        engine.reset_counters()
        per_thread = 500

        def hammer():
            for i in range(per_thread):
                engine.point(ids[i % 25], ids[(i + 1) % 25])

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert engine.queries_served == 8 * per_thread
        assert engine.pairs_evaluated == 8 * per_thread
