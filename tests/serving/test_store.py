"""Tests for the vector store and the shard-assignment helpers."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.ides import HostVectors
from repro.serving import (
    InMemoryVectorStore,
    QueryEngine,
    group_by_shard,
    shard_of,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from harness import id_list_nearest  # noqa: E402


def vectors_for(value: float, dimension: int = 3) -> HostVectors:
    return HostVectors(
        outgoing=np.full(dimension, value), incoming=np.full(dimension, -value)
    )


class TestInMemoryVectorStore:
    def test_put_get_roundtrip(self):
        store = InMemoryVectorStore(dimension=3)
        store.put("a", vectors_for(1.5))
        fetched = store.get("a")
        np.testing.assert_array_equal(fetched.outgoing, [1.5, 1.5, 1.5])
        np.testing.assert_array_equal(fetched.incoming, [-1.5, -1.5, -1.5])
        assert "a" in store and len(store) == 1

    def test_put_overwrites(self):
        store = InMemoryVectorStore(dimension=3)
        store.put("a", vectors_for(1.0))
        store.put("a", vectors_for(2.0))
        assert len(store) == 1
        np.testing.assert_array_equal(store.get("a").outgoing, [2.0, 2.0, 2.0])

    def test_get_returns_copies(self):
        store = InMemoryVectorStore(dimension=3)
        store.put("a", vectors_for(1.0))
        store.get("a").outgoing[:] = 99.0
        np.testing.assert_array_equal(store.get("a").outgoing, [1.0, 1.0, 1.0])

    def test_unknown_host_raises(self):
        store = InMemoryVectorStore(dimension=3)
        with pytest.raises(ValidationError):
            store.get("ghost")
        with pytest.raises(ValidationError):
            store.gather(["ghost"])

    def test_dimension_mismatch_rejected(self):
        store = InMemoryVectorStore(dimension=3)
        with pytest.raises(ValidationError):
            store.put("a", HostVectors(np.ones(5), np.ones(5)))

    def test_growth_beyond_initial_capacity(self):
        store = InMemoryVectorStore(dimension=2, initial_capacity=2)
        ids = [f"h{i}" for i in range(50)]
        for i, host_id in enumerate(ids):
            store.put(host_id, HostVectors(np.full(2, i), np.full(2, 2 * i)))
        assert len(store) == 50
        assert store.capacity >= 50
        outgoing, incoming = store.gather(ids)
        np.testing.assert_array_equal(outgoing[:, 0], np.arange(50))
        np.testing.assert_array_equal(incoming[:, 0], 2 * np.arange(50))

    def test_delete_frees_slot_for_reuse(self):
        store = InMemoryVectorStore(dimension=2, initial_capacity=2)
        store.put("a", vectors_for(1.0, 2))
        store.put("b", vectors_for(2.0, 2))
        capacity = store.capacity
        assert store.delete("a") is True
        assert store.delete("a") is False
        store.put("c", vectors_for(3.0, 2))
        assert store.capacity == capacity  # reused the freed slot
        assert "a" not in store and "c" in store

    def test_put_many_and_gather_order(self):
        store = InMemoryVectorStore(dimension=2)
        ids = ["x", "y", "z"]
        outgoing = np.arange(6.0).reshape(3, 2)
        incoming = outgoing + 10.0
        store.put_many(ids, outgoing, incoming)
        got_out, got_in = store.gather(["z", "x"])
        np.testing.assert_array_equal(got_out, outgoing[[2, 0]])
        np.testing.assert_array_equal(got_in, incoming[[2, 0]])

    def test_put_many_shape_validation(self):
        store = InMemoryVectorStore(dimension=2)
        with pytest.raises(ValidationError):
            store.put_many(["a"], np.ones((2, 2)), np.ones((2, 2)))

    def test_export_roundtrips_all_hosts(self):
        store = InMemoryVectorStore(dimension=2)
        store.put_many(["a", "b"], np.ones((2, 2)), np.zeros((2, 2)))
        ids, outgoing, incoming = store.export()
        assert sorted(ids) == ["a", "b"]
        assert outgoing.shape == incoming.shape == (2, 2)

    def test_export_empty(self):
        ids, outgoing, incoming = InMemoryVectorStore(dimension=4).export()
        assert ids == []
        assert outgoing.shape == (0, 4)

    def test_export_matches_get_after_churn(self):
        """After interleaved put_many, delete and re-put, export holds
        every stored host once, with the rows get() returns, in copies
        that later writes do not touch."""
        rng = np.random.default_rng(5)
        store = InMemoryVectorStore(dimension=3, initial_capacity=2)
        ids = [f"h{i}" for i in range(40)]
        store.put_many(ids, rng.random((40, 3)), rng.random((40, 3)))
        for host in ids[::7]:
            store.delete(host)
        store.put_many(ids[::14], rng.random((3, 3)), rng.random((3, 3)))
        store.delete(ids[5])
        store.put_many([ids[5], 99], rng.random((2, 3)), rng.random((2, 3)))
        exported, outgoing, incoming = store.export()
        assert len(exported) == len(set(exported)) == len(store)
        for row, host in enumerate(exported):
            vectors = store.get(host)
            np.testing.assert_array_equal(outgoing[row], vectors.outgoing)
            np.testing.assert_array_equal(incoming[row], vectors.incoming)
        before = outgoing.copy()
        zeros = np.zeros((len(exported), 3))
        store.put_many(exported, zeros, zeros)
        np.testing.assert_array_equal(outgoing, before)


class TestBulkRowClaims:
    """put_many looks a batch up in one pass and claims the rows of its
    new hosts in one step; the write semantics are those of one put per
    host."""

    def test_new_hosts_take_rows_in_first_appearance_order(self):
        store = InMemoryVectorStore(dimension=2)
        store.put_many(["a", "b"], np.ones((2, 2)), np.ones((2, 2)))
        vectors = np.arange(10.0).reshape(5, 2)
        store.put_many(["c", "a", "d", "c", "e"], vectors, -vectors)
        assert store.export()[0] == ["a", "b", "c", "d", "e"]
        assert list(store.rows_for(["a", "b", "c", "d", "e"])) == [0, 1, 2, 3, 4]

    def test_repeated_id_shares_one_row_and_the_last_write_wins(self):
        store = InMemoryVectorStore(dimension=2)
        vectors = np.arange(8.0).reshape(4, 2)
        store.put_many(["x", "y", "x", "x"], vectors, -vectors)
        assert len(store) == 2
        np.testing.assert_array_equal(store.get("x").outgoing, vectors[3])
        np.testing.assert_array_equal(store.get("x").incoming, -vectors[3])
        np.testing.assert_array_equal(store.get("y").outgoing, vectors[1])
        store.put_many(["y", "z", "z"], vectors[:3], vectors[:3])
        assert store.export()[0] == ["x", "y", "z"]
        np.testing.assert_array_equal(store.get("y").outgoing, vectors[0])
        np.testing.assert_array_equal(store.get("z").outgoing, vectors[2])

    def test_equal_ids_share_a_row_as_with_put(self):
        """1 and True are one dict key: one row, kept under the first."""
        bulk = InMemoryVectorStore(dimension=1)
        bulk.put_many([1, True], np.array([[1.0], [2.0]]), np.zeros((2, 1)))
        single = InMemoryVectorStore(dimension=1)
        single.put(1, HostVectors(np.array([1.0]), np.zeros(1)))
        single.put(True, HostVectors(np.array([2.0]), np.zeros(1)))
        for store in (bulk, single):
            ids, outgoing, _ = store.export()
            assert ids == [1] and type(ids[0]) is int
            np.testing.assert_array_equal(outgoing, [[2.0]])

    def test_unhashable_id_raises_before_claiming(self):
        store = InMemoryVectorStore(dimension=2)
        store.put_many(["a"], np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(TypeError):
            store.put_many(["b", ["c"]], np.zeros((2, 2)), np.zeros((2, 2)))
        assert store.export()[0] == ["a"]
        np.testing.assert_array_equal(store.get("a").outgoing, [1.0, 1.0])

    def test_capacity_grows_once_to_the_next_doubling(self):
        store = InMemoryVectorStore(dimension=2, initial_capacity=4)
        store.put_many(range(4), np.ones((4, 2)), np.ones((4, 2)))
        store.put_many(range(2, 40), np.full((38, 2), 2.0), np.ones((38, 2)))
        assert store.capacity == 64
        assert len(store) == 40
        np.testing.assert_array_equal(store.gather(range(2))[0], np.ones((2, 2)))
        np.testing.assert_array_equal(
            store.gather(range(2, 40))[0], np.full((38, 2), 2.0)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 12), max_size=10), min_size=1, max_size=6
        )
    )
    def test_matches_a_dict_of_last_writes(self, batches):
        """Rows follow first appearance and hold each host's last write,
        like a dict updated host by host."""
        rng = np.random.default_rng(len(batches))
        store = InMemoryVectorStore(dimension=2, initial_capacity=1)
        expected: dict = {}
        for batch in batches:
            outgoing = rng.random((len(batch), 2))
            incoming = rng.random((len(batch), 2))
            store.put_many(batch, outgoing, incoming)
            for row, host_id in enumerate(batch):
                expected[host_id] = (outgoing[row], incoming[row])
        ids, outgoing, incoming = store.export()
        assert ids == list(expected)
        for row, (want_out, want_in) in enumerate(expected.values()):
            np.testing.assert_array_equal(outgoing[row], want_out)
            np.testing.assert_array_equal(incoming[row], want_in)


class TestShardOf:
    def test_shard_assignment_is_stable(self):
        for host_id in ["a", "b", 42, "host-7"]:
            assert shard_of(host_id, 8) == shard_of(host_id, 8)
            assert 0 <= shard_of(host_id, 8) < 8

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_group_by_shard_matches_shard_of(self, n_shards):
        ids = ["a", 7, True, "host-7", 1, -3]
        groups = group_by_shard(ids, n_shards)
        assert sorted(np.concatenate(list(groups.values()))) == list(range(6))
        for shard, positions in groups.items():
            assert positions.size
            assert list(positions) == sorted(positions)
            assert all(shard_of(ids[p], n_shards) == shard for p in positions)

    def test_one_slice_takes_every_position(self):
        groups = group_by_shard(["a", 7, None], 1)
        assert list(groups) == [0]
        np.testing.assert_array_equal(groups[0], [0, 1, 2])
        assert group_by_shard([], 1) == {}
        assert group_by_shard([], 3) == {}


class TestThreadSafety:
    """Bulk writes racing gathers must never tear the row maps."""

    def test_concurrent_put_many_and_gather(self):
        import threading

        rng = np.random.default_rng(0)
        ids = [f"h{i}" for i in range(200)]
        store = InMemoryVectorStore(dimension=3, initial_capacity=4)
        store.put_many(ids, rng.random((200, 3)), rng.random((200, 3)))
        errors = []
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                store.put_many(
                    ids[:50], rng.random((50, 3)), rng.random((50, 3))
                )

        def reader():
            try:
                for _ in range(300):
                    outgoing, incoming = store.gather(ids)
                    if outgoing.shape != (200, 3) or incoming.shape != (200, 3):
                        errors.append("bad shape")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(repr(error))

        writer_thread = threading.Thread(target=writer, daemon=True)
        reader_threads = [
            threading.Thread(target=reader, daemon=True) for _ in range(3)
        ]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join(timeout=30)
        stop.set()
        writer_thread.join(timeout=30)
        assert errors == []

    def test_concurrent_churn_against_gather(self):
        """Every delete moves the last host into the freed row, so
        gathers racing register/evict churn must still find each seeded
        host with its own vectors."""
        import threading

        rng = np.random.default_rng(1)
        ids = [f"h{i}" for i in range(120)]
        seeded_out, seeded_in = rng.random((120, 2)), rng.random((120, 2))
        store = InMemoryVectorStore(dimension=2, initial_capacity=2)
        store.put_many(ids, seeded_out, seeded_in)
        errors = []

        def churn(offset):
            try:
                for i in range(200):
                    host = f"extra-{offset}-{i % 10}"
                    store.put(host, HostVectors(np.ones(2), np.ones(2)))
                    outgoing, incoming = store.gather(ids[:30])
                    if not (
                        np.array_equal(outgoing, seeded_out[:30])
                        and np.array_equal(incoming, seeded_in[:30])
                    ):
                        errors.append("torn gather")
                    store.delete(host)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(repr(error))

        threads = [
            threading.Thread(target=churn, args=(t,), daemon=True)
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 120

    def test_nearest_racing_deletes_pairs_each_winner_with_its_vectors(self):
        """A delete moves the last host into the freed row; a scan racing
        the churn must still report every winner with its own distance."""
        import threading

        rng = np.random.default_rng(2)
        ids = [f"h{i}" for i in range(100)]
        incoming = rng.random((100, 3)) + 1.0
        store = InMemoryVectorStore(dimension=3, initial_capacity=4)
        store.put_many(ids, incoming, incoming)
        source_out = np.ones(3)
        expected = dict(zip(ids, (incoming @ source_out).tolist()))
        extra = HostVectors(np.zeros(3), np.full(3, 0.25))  # distance 0.75
        errors = []

        def churn(offset):
            try:
                for i in range(1000):
                    host = f"extra-{offset}-{i % 7}"
                    store.put(host, extra)
                    store.delete(host)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(repr(error))

        def scan():
            try:
                for _ in range(1000):
                    winners, distances, _ = store.nearest(source_out, 10)
                    for host, distance in zip(winners, distances.tolist()):
                        if distance != expected.get(host, 0.75):
                            errors.append((host, distance))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(repr(error))

        threads = [
            threading.Thread(target=churn, args=(t,), daemon=True)
            for t in range(3)
        ] + [threading.Thread(target=scan, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 100


class TestZeroCopyGather:
    def build(self, n=10, d=4):
        rng = np.random.default_rng(2)
        store = InMemoryVectorStore(d)
        ids = [f"h{i}" for i in range(n)]
        store.put_many(ids, rng.random((n, d)), rng.random((n, d)))
        return store, ids

    def test_copy_true_returns_owned_arrays(self):
        store, ids = self.build()
        outgoing, _ = store.gather(ids)
        assert outgoing.flags.owndata or outgoing.base is None
        outgoing[0, 0] = 99.0
        fresh, _ = store.gather(ids)
        assert fresh[0, 0] != 99.0  # the store was not written through

    def test_contiguous_slab_is_a_view_with_copy_false(self):
        """Bulk-seeded hosts occupy a contiguous slab: gather(copy=False)
        returns slice views, which the shard server copies once into
        its response frame."""
        store, ids = self.build()
        outgoing, incoming = store.gather(ids, copy=False)
        assert not outgoing.flags.owndata
        assert np.shares_memory(outgoing, store._outgoing)
        assert np.shares_memory(incoming, store._incoming)
        expected, _ = store.gather(ids)
        np.testing.assert_array_equal(outgoing, expected)

    def test_subslab_view(self):
        store, ids = self.build()
        outgoing, _ = store.gather(ids[3:8], copy=False)
        assert np.shares_memory(outgoing, store._outgoing)
        np.testing.assert_array_equal(outgoing, store.gather(ids[3:8])[0])

    def test_shuffled_request_still_correct_with_copy_false(self):
        """Non-contiguous requests silently take the fancy-index path:
        copy=False is permission, not a promise."""
        store, ids = self.build()
        shuffled = [ids[7], ids[2], ids[9], ids[0]]
        outgoing, incoming = store.gather(shuffled, copy=False)
        expected_out, expected_in = store.gather(shuffled)
        np.testing.assert_array_equal(outgoing, expected_out)
        np.testing.assert_array_equal(incoming, expected_in)

    def test_matching_endpoints_of_scattered_rows_are_copied(self):
        """Rows 3, 5, 4, 6 start and end where a slab of four would, but
        are not one: the values are right and owned by the caller."""
        store, ids = self.build()
        request = [ids[3], ids[5], ids[4], ids[6]]
        outgoing, incoming = store.gather(request, copy=False)
        expected_out, expected_in = store.gather(request)
        np.testing.assert_array_equal(outgoing, expected_out)
        np.testing.assert_array_equal(incoming, expected_in)
        assert not np.shares_memory(outgoing, store._outgoing)
        assert not np.shares_memory(incoming, store._incoming)

    def test_reversed_request_is_not_a_wrong_view(self):
        store, ids = self.build()
        outgoing, _ = store.gather(list(reversed(ids)), copy=False)
        np.testing.assert_array_equal(
            outgoing, store.gather(list(reversed(ids)))[0]
        )

    def test_zero_copy_engine_matches_copying_engine(self):
        from repro.serving import QueryEngine

        store, ids = self.build()
        plain = QueryEngine(store)
        fast = QueryEngine(store, zero_copy=True)
        np.testing.assert_array_equal(
            plain.pairs(ids[:4], ids[4:8]), fast.pairs(ids[:4], ids[4:8])
        )
        assert plain.k_nearest(ids[0], 3) == fast.k_nearest(ids[0], 3)


# ---------------------------------------------------------------------- #
# full-scan k-nearest: the in-place scan against the id-list oracle
# ---------------------------------------------------------------------- #

SCAN_DIMENSION = 4


def dyadic(rng, rows):
    """Positive vectors of multiples of 1/64 below 16: every dot product
    of two of them is exact in float64 whatever order BLAS sums it in,
    so the in-place scan (one product over the store's rows) and the
    oracle (one product over gathered rows) must agree bit for bit."""
    return rng.integers(1, 1024, size=(rows, SCAN_DIMENSION)) / 64.0


def put_hosts(store, rng, hosts):
    store.put_many(list(hosts), dyadic(rng, len(hosts)), dyadic(rng, len(hosts)))


def make_scan_store(capacity=64):
    return InMemoryVectorStore(SCAN_DIMENSION, initial_capacity=capacity)


def distinct_distances(store, source_out):
    """Whether no two stored hosts tie: then the answer is unique."""
    ids = store.ids()
    if not ids:
        return True
    _, incoming = store.gather(ids)
    return np.unique(incoming @ source_out).size == len(ids)


def assert_matches_oracle(store, source_out, k, exclude):
    """``nearest`` returns the oracle's ids, distances and count exactly."""
    found_ids, found, scanned = store.nearest(source_out, k, exclude)
    expected_ids, expected, expected_scanned = id_list_nearest(
        store, source_out, k, exclude
    )
    assert found_ids == expected_ids
    np.testing.assert_array_equal(found, expected)
    assert scanned == expected_scanned


class TestNearestScan:
    """``InMemoryVectorStore.nearest`` against the id-list scan it
    replaced (``benchmarks/harness.py::id_list_nearest``)."""

    @pytest.mark.parametrize(
        "history", ["spare_capacity", "deletes", "re_puts", "empty"]
    )
    def test_matches_id_list_scan(self, history):
        """Spare capacity leaves never-used zero rows (distance 0, they
        would rank first if scored); deletes leave stale vectors behind
        the stored rows; re-puts refill freed rows."""
        rng = np.random.default_rng(5)
        store = make_scan_store()
        if history != "empty":
            put_hosts(store, rng, range(12 if history == "spare_capacity" else 40))
        if history in ("deletes", "re_puts"):
            for host in range(0, 40, 3):
                store.delete(host)
        if history == "re_puts":
            put_hosts(store, rng, [3, 9, 27, 40, 41, 42])
        source_out = dyadic(rng, 1)[0]
        assert distinct_distances(store, source_out)
        stored = store.ids()
        middle = stored[len(stored) // 2] if stored else None
        for exclude in (None, middle, "ghost"):
            for k in (1, 5, len(stored), len(stored) + 3):
                assert_matches_oracle(store, source_out, max(k, 1), exclude)

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        history=st.lists(st.tuples(st.booleans(), st.integers(0, 15)), max_size=40),
        k=st.integers(1, 20),
        exclude=st.one_of(st.none(), st.integers(0, 19)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_histories_match_id_list_scan(
        self, capacity, history, k, exclude, seed
    ):
        rng = np.random.default_rng(seed)
        store = make_scan_store(capacity)
        for is_put, host in history:
            if is_put:
                put_hosts(store, rng, [host])
            else:
                store.delete(host)
        source_out = dyadic(rng, 1)[0]
        assume(distinct_distances(store, source_out))
        assert_matches_oracle(store, source_out, k, exclude)

    def test_engine_full_scan_matches_id_list_scan(self):
        """``include_self`` keeps the source in the pool; the default
        excludes it. The counters see one query of every scored host."""
        rng = np.random.default_rng(6)
        store = make_scan_store()
        put_hosts(store, rng, range(30))
        store.delete(4)
        engine = QueryEngine(store)
        source_out = store.get(11).outgoing
        assert distinct_distances(store, source_out)
        for include_self in (False, True):
            engine.reset_counters()
            expected_ids, expected, scanned = id_list_nearest(
                store, source_out, 8, exclude=None if include_self else 11
            )
            assert engine.k_nearest(11, 8, include_self=include_self) == list(
                zip(expected_ids, expected.tolist())
            )
            assert (engine.queries_served, engine.pairs_evaluated) == (1, scanned)
        assert scanned == 29

    def test_ties_come_out_in_store_row_order(self):
        """A new host takes the next row and a delete moves the last
        host into the freed row."""
        store = InMemoryVectorStore(SCAN_DIMENSION)
        source_out = np.ones(SCAN_DIMENSION)
        for host in "abcde":
            store.put(host, HostVectors(source_out, source_out))
        assert store.nearest(source_out, 5)[0] == list("abcde")
        store.delete("b")
        assert store.nearest(source_out, 5)[0] == list("aecd")

    def test_k_must_be_positive(self):
        store = make_scan_store()
        with pytest.raises(ValidationError, match="k must be >= 1"):
            store.nearest(np.ones(SCAN_DIMENSION), 0)
