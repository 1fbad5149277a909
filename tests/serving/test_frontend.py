"""Tests for the concurrent micro-batching frontend."""

import asyncio
import time

import numpy as np
import pytest

from repro.exceptions import OverloadedError, ReproError, ValidationError
from repro.serving import (
    AsyncDistanceFrontend,
    DistanceService,
    PredictionCache,
)


@pytest.fixture
def service():
    """50 hosts over random positive vectors, first 10 as landmarks."""
    rng = np.random.default_rng(4)
    ids = [f"h{i}" for i in range(50)]
    return DistanceService.from_vectors(
        ids,
        rng.random((50, 3)) + 0.5,
        rng.random((50, 3)) + 0.5,
        landmark_ids=ids[:10],
    )


def run(coroutine):
    return asyncio.run(coroutine)


class TestLifecycle:
    def test_requires_running_dispatcher(self, service):
        frontend = AsyncDistanceFrontend(service)

        async def premature():
            await frontend.query("h0", "h1")

        with pytest.raises(ReproError):
            run(premature())

    def test_context_manager_starts_and_stops(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                assert frontend.running
                value = await frontend.query("h0", "h1")
            assert not frontend.running
            return value

        assert run(scenario()) == pytest.approx(service.engine.point("h0", "h1"))

    def test_double_start_is_idempotent(self, service):
        async def scenario():
            frontend = AsyncDistanceFrontend(service)
            await frontend.start()
            first_task = frontend._dispatcher
            await frontend.start()
            assert frontend._dispatcher is first_task
            await frontend.stop()
            await frontend.stop()  # second stop is a no-op

        run(scenario())

    def test_stop_cancels_pending_requests(self, service):
        async def scenario():
            frontend = AsyncDistanceFrontend(service)
            await frontend.start()
            future = frontend.submit("h0", "h1")
            await frontend.stop()
            return future.cancelled()

        assert run(scenario())

    def test_restart_after_stop(self, service):
        async def scenario():
            frontend = AsyncDistanceFrontend(service)
            await frontend.start()
            await frontend.stop()
            await frontend.start()
            value = await frontend.query("h1", "h2")
            await frontend.stop()
            return value

        assert run(scenario()) == pytest.approx(service.engine.point("h1", "h2"))

    def test_invalid_parameters(self, service):
        with pytest.raises(ValidationError):
            AsyncDistanceFrontend(service, max_batch=0)


class TestCorrectness:
    def test_point_matches_engine(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await frontend.query("h3", "h7")

        assert run(scenario()) == pytest.approx(service.engine.point("h3", "h7"))

    def test_concurrent_points_all_correct(self, service):
        pairs = [(f"h{i}", f"h{(i * 7 + 1) % 50}") for i in range(40)]

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await asyncio.gather(
                    *(frontend.query(s, d) for s, d in pairs)
                )

        values = run(scenario())
        for (s, d), value in zip(pairs, values):
            assert value == pytest.approx(service.engine.point(s, d))

    def test_query_pairs(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await frontend.query_pairs(
                    ["h0", "h1", "h2"], ["h3", "h4", "h5"]
                )

        values = run(scenario())
        expected = service.engine.pairs(["h0", "h1", "h2"], ["h3", "h4", "h5"])
        np.testing.assert_allclose(values, expected)

    def test_query_pairs_misaligned_rejected(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                await frontend.query_pairs(["h0"], ["h1", "h2"])

        with pytest.raises(ValidationError):
            run(scenario())

    def test_one_to_many(self, service):
        destinations = [f"h{i}" for i in range(1, 20)]

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await frontend.query_one_to_many("h0", destinations)

        np.testing.assert_allclose(
            run(scenario()), service.engine.one_to_many("h0", destinations)
        )

    def test_k_nearest(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await frontend.k_nearest("h0", 5)

        assert run(scenario()) == service.engine.k_nearest("h0", 5)

    def test_mixed_shapes_in_one_cycle(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await asyncio.gather(
                    frontend.query("h1", "h2"),
                    frontend.query_one_to_many("h3", ["h4", "h5"]),
                    frontend.k_nearest("h6", 3),
                    frontend.query_pairs(["h7"], ["h8"]),
                )

        point, fanout, nearest, pairs = run(scenario())
        assert point == pytest.approx(service.engine.point("h1", "h2"))
        assert fanout.shape == (2,)
        assert len(nearest) == 3
        assert pairs.shape == (1,)

    def test_scan_batches_in_one_cycle_match_the_engine(self, service):
        """Several k-NN and 1:N requests, with points and a pairs
        request, in one cycle: each scan kind is one backend batch, and
        every answer equals the engine's own."""
        knn = [("h1", 3, None), ("h2", 4, ["h5", "h6", "h7"]), ("h3", 2, [])]
        fanouts = [("h4", ["h8", "h9"]), ("h5", []), ("h6", ["h1", "h2", "h3"])]

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                answers = await asyncio.gather(
                    frontend.query("h1", "h2"),
                    *(frontend.k_nearest(s, k, c) for s, k, c in knn),
                    *(frontend.query_one_to_many(s, d) for s, d in fanouts),
                    frontend.query_pairs(["h7"], ["h8"]),
                )
                return answers, frontend.stats()

        answers, stats = run(scenario())
        assert stats.batches == 1 and stats.completed == 8
        assert answers[0] == pytest.approx(service.engine.point("h1", "h2"))
        for (source, k, candidates), answer in zip(knn, answers[1:4]):
            assert answer == service.engine.k_nearest(
                source, k, candidate_ids=candidates
            )
        for (source, hosts), answer in zip(fanouts, answers[4:7]):
            np.testing.assert_array_equal(
                answer, service.engine.one_to_many(source, hosts)
            )
        np.testing.assert_allclose(
            answers[7], service.engine.pairs(["h7"], ["h8"])
        )

    def test_candidate_generator_survives_a_failed_batch(self, service):
        """A k-NN pool given as a generator still answers when its
        cycle's batch fails and the request is re-sent alone."""
        pool = [f"h{i}" for i in range(2, 8)]

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await asyncio.gather(
                    frontend.k_nearest("h1", 2, (host for host in pool)),
                    frontend.k_nearest("missing", 2),
                    return_exceptions=True,
                )

        good, bad = run(scenario())
        assert isinstance(bad, ValidationError)
        assert good == service.engine.k_nearest("h1", 2, candidate_ids=pool)


class TestCoalescing:
    def test_concurrent_load_forms_batches(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                await asyncio.gather(
                    *(
                        frontend.query(f"h{i % 50}", f"h{(i + 1) % 50}")
                        for i in range(120)
                    )
                )
                return frontend.stats()

        stats = run(scenario())
        assert stats.submitted == stats.completed == 120
        assert stats.batches < 120
        assert stats.mean_batch > 1.0
        assert stats.max_batch_seen > 1

    def test_max_batch_splits_oversized_cycles(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service, max_batch=8) as frontend:
                await asyncio.gather(
                    *(
                        frontend.query(f"h{i % 50}", f"h{(i + 3) % 50}")
                        for i in range(30)
                    )
                )
                return frontend.stats()

        stats = run(scenario())
        assert stats.max_batch_seen <= 8
        assert stats.batches >= 4

    def test_submit_pipelines_into_one_cycle(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                futures = [
                    frontend.submit(f"h{i}", f"h{i + 1}") for i in range(20)
                ]
                values = [await future for future in futures]
                return values, frontend.stats()

        values, stats = run(scenario())
        assert stats.batches == 1
        assert stats.max_batch_seen == 20
        for i, value in enumerate(values):
            assert value == pytest.approx(
                service.engine.point(f"h{i}", f"h{i + 1}")
            )


class TestCacheIntegration:
    def test_cache_hit_resolves_without_dispatch(self, service):
        service.query("h0", "h1")  # prime the prediction cache

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                value = await frontend.query("h0", "h1")
                return value, frontend.stats()

        value, stats = run(scenario())
        assert value == pytest.approx(service.engine.point("h0", "h1"))
        assert stats.cache_hits == 1
        assert stats.batches == 0

    def test_populate_cache_writes_back(self, service):
        async def scenario():
            frontend = AsyncDistanceFrontend(service, populate_cache=True)
            async with frontend:
                await asyncio.gather(
                    frontend.query("h0", "h1"), frontend.query("h2", "h3")
                )

        run(scenario())
        assert service.cache.get("h0", "h1") is not None
        assert service.cache.get("h2", "h3") is not None

    def test_batch_reads_leave_cache_alone_by_default(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                await asyncio.gather(
                    frontend.query("h0", "h1"), frontend.query("h2", "h3")
                )

        run(scenario())
        assert len(service.cache) == 0


class TestFailureIsolation:
    def test_unknown_host_fails_only_its_own_future(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                return await asyncio.gather(
                    frontend.query("h0", "missing"),
                    frontend.query("h1", "h2"),
                    frontend.query("missing", "h3"),
                    frontend.query("h4", "h5"),
                    return_exceptions=True,
                )

        bad_one, good_one, bad_two, good_two = run(scenario())
        assert isinstance(bad_one, ValidationError)
        assert isinstance(bad_two, ValidationError)
        assert good_one == pytest.approx(service.engine.point("h1", "h2"))
        assert good_two == pytest.approx(service.engine.point("h4", "h5"))

    def test_fallbacks_counted(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                await asyncio.gather(
                    frontend.query("h0", "missing"),
                    frontend.query("h1", "h2"),
                    return_exceptions=True,
                )
                return frontend.stats()

        assert run(scenario()).point_fallbacks == 2

    def test_unknown_host_in_fanout_raises_cleanly(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                await frontend.query_one_to_many("h0", ["h1", "missing"])

        with pytest.raises(ValidationError):
            run(scenario())

    def test_non_repro_error_does_not_kill_dispatcher(self, service):
        """An unhashable host id raises TypeError deep in the store;
        the dispatcher must fail that future only and keep serving."""

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                first = await asyncio.gather(
                    frontend.query(["unhashable"], "h1"),
                    frontend.query("h2", "h3"),
                    return_exceptions=True,
                )
                # the dispatcher survived: a later round still answers
                follow_up = await frontend.query("h4", "h5")
                return first, follow_up

        (bad, good), follow_up = run(scenario())
        assert isinstance(bad, TypeError)
        assert good == pytest.approx(service.engine.point("h2", "h3"))
        assert follow_up == pytest.approx(service.engine.point("h4", "h5"))

    def test_completed_counts_fallback_batches(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                await asyncio.gather(
                    frontend.query("h0", "missing"),
                    frontend.query("h1", "h2"),
                    return_exceptions=True,
                )
                return frontend.stats()

        stats = run(scenario())
        assert stats.completed == stats.submitted == 2

    def test_cancelled_request_does_not_poison_batch(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                doomed = frontend.submit("h0", "h1")
                kept = frontend.submit("h2", "h3")
                doomed.cancel()
                return await kept

        assert run(scenario()) == pytest.approx(service.engine.point("h2", "h3"))

    @pytest.mark.parametrize(
        "error",
        [OverloadedError("shard saturated"), ValidationError("unknown host")],
        ids=["overloaded", "validation"],
    )
    def test_lone_failing_point_query_is_sent_once(self, error):
        """A point query alone in its cycle fails in place: the backend
        sees one call, not the call plus a per-request re-send."""
        backend = _FailingBackend(error)

        async def scenario():
            async with AsyncDistanceFrontend(backend) as frontend:
                with pytest.raises(type(error)):
                    await frontend.query("a", "b")
                return frontend.stats()

        stats = run(scenario())
        assert backend.calls == ["point"]
        assert stats.completed == stats.submitted == 1
        assert stats.point_fallbacks == 0

    @pytest.mark.parametrize("kind", ["k_nearest", "one_to_many"])
    def test_failed_scan_batch_resends_its_members_side_by_side(self, kind):
        """When a cycle's scan batch fails, its members are re-sent
        alone and all at once: the cycle costs about one slow single
        call, not one per member, and every member gets its answer."""
        backend = _SlowSingleScanBackend(delay=0.2)
        sources = list(range(6))

        async def scenario():
            async with AsyncDistanceFrontend(backend) as frontend:

                def send(source):
                    if kind == "k_nearest":
                        return frontend.k_nearest(source, 1)
                    return frontend.query_one_to_many(source, ["d"])

                started = time.perf_counter()
                answers = await asyncio.gather(*map(send, sources))
                return answers, time.perf_counter() - started, frontend.stats()

        answers, elapsed, stats = run(scenario())
        assert backend.peak_in_flight == len(sources)
        assert elapsed < 3 * backend.delay
        assert stats.point_fallbacks == len(sources)
        for source, answer in zip(sources, answers):
            if kind == "k_nearest":
                assert answer == [(source, 0.0)]
            else:
                np.testing.assert_array_equal(answer, [float(source)])


class _FailingBackend:
    """Async backend whose every read raises ``error``; records calls."""

    def __init__(self, error):
        self.error = error
        self.cache = PredictionCache()
        self.write_epoch = 0
        self.calls = []

    def cache_put_if_current(self, *args):
        return False

    def cache_put_many_if_current(self, *args):
        return 0

    async def point(self, source_id, destination_id, deadline=None):
        self.calls.append("point")
        raise self.error

    async def pairs(self, source_ids, destination_ids, deadline=None):
        self.calls.append("pairs")
        raise self.error

    async def one_to_many_batch(self, source_ids, destination_ids):
        raise self.error

    async def k_nearest_batch(self, source_ids, ks, candidate_ids):
        raise self.error


class _SlowSingleScanBackend(_FailingBackend):
    """Async backend whose scan batches of two or more raise
    :class:`OverloadedError` and whose batches of one answer after
    ``delay`` seconds; records the most single scans in flight at once."""

    def __init__(self, delay):
        super().__init__(OverloadedError("batch refused"))
        self.delay = delay
        self.in_flight = 0
        self.peak_in_flight = 0

    async def _single(self, n_queries, answer):
        if n_queries > 1:
            raise self.error
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            await asyncio.sleep(self.delay)
        finally:
            self.in_flight -= 1
        return [answer]

    async def one_to_many_batch(self, source_ids, destination_ids):
        answer = np.full(len(destination_ids[0]), float(source_ids[0]))
        return await self._single(len(source_ids), answer)

    async def k_nearest_batch(self, source_ids, ks, candidate_ids):
        return await self._single(len(source_ids), [(source_ids[0], 0.0)])
