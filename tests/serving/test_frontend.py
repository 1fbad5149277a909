"""Tests for the concurrent micro-batching frontend."""

import asyncio

import numpy as np
import pytest

from repro.exceptions import ReproError, ValidationError
from repro.serving import (
    AdaptiveBatchPolicy,
    AsyncDistanceFrontend,
    DistanceService,
    FixedWindowPolicy,
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
        with pytest.raises(ValidationError):
            AsyncDistanceFrontend(service, max_batch=4, min_batch=8)
        with pytest.raises(ValidationError):
            AsyncDistanceFrontend(service, max_wait_ms=-1)


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

    def test_min_batch_waits_but_still_answers_lone_query(self, service):
        async def scenario():
            frontend = AsyncDistanceFrontend(
                service, min_batch=16, max_wait_ms=5.0
            )
            async with frontend:
                return await frontend.query("h2", "h9")

        assert run(scenario()) == pytest.approx(service.engine.point("h2", "h9"))

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


class TestBatchPolicies:
    def test_fixed_window_validation(self):
        with pytest.raises(ValidationError):
            FixedWindowPolicy(-1.0)

    def test_adaptive_validation(self):
        with pytest.raises(ValidationError):
            AdaptiveBatchPolicy(gain=-0.1)
        with pytest.raises(ValidationError):
            AdaptiveBatchPolicy(alpha=0.0)
        with pytest.raises(ValidationError):
            AdaptiveBatchPolicy(ceiling_ms=-1.0)

    def test_frontend_rejects_policy_without_surface(self, service):
        with pytest.raises(ValidationError, match="policy"):
            AsyncDistanceFrontend(service, policy=object())

    def test_adaptive_waits_nothing_before_feedback(self):
        policy = AdaptiveBatchPolicy()
        assert policy.wait_seconds(pending=1) == 0.0
        assert policy.dispatch_latency_ms is None
        assert policy.arrival_rate is None

    def test_adaptive_zero_wait_at_equilibrium(self):
        """Steady load: the queue reaches the rate*latency target on
        its own, so the controller must not add latency."""
        clock = FakeClock()
        policy = AdaptiveBatchPolicy(clock=clock)
        for _ in range(10):
            policy.note_arrival(32)
            clock.advance(0.01)
            policy.observe(batch_size=32, dispatch_seconds=0.01)
        # rate ~3200/s, latency ~10ms -> target ~32; 32 pending = go now
        assert policy.wait_seconds(pending=32) == 0.0
        # a fragment far below target earns a bounded hold
        hold = policy.wait_seconds(pending=2)
        assert 0.0 < hold <= 0.01 * policy.gain + 1e-9

    def test_adaptive_skips_wait_under_light_traffic(self):
        clock = FakeClock()
        policy = AdaptiveBatchPolicy(clock=clock)
        for _ in range(5):
            policy.note_arrival(1)
            clock.advance(1.0)  # one request per second: target << 1
            policy.observe(batch_size=1, dispatch_seconds=0.005)
        assert policy.wait_seconds(pending=1) == 0.0

    def test_adaptive_hold_is_capped_by_ceiling(self):
        clock = FakeClock()
        policy = AdaptiveBatchPolicy(ceiling_ms=2.0, gain=10.0, clock=clock)
        for _ in range(5):
            policy.note_arrival(1000)
            clock.advance(0.1)
            policy.observe(batch_size=100, dispatch_seconds=0.1)
        assert policy.wait_seconds(pending=1) <= 0.002 + 1e-9

    def test_stats_expose_policy_state(self, service):
        async def scenario():
            policy = AdaptiveBatchPolicy()
            async with AsyncDistanceFrontend(service, policy=policy) as frontend:
                ids = service.known_hosts()
                await asyncio.gather(
                    *(frontend.query(ids[i], ids[-1 - i]) for i in range(8))
                )
                return frontend.stats()

        stats = asyncio.run(scenario())
        assert stats.batch_wait_ms is not None
        assert stats.dispatch_latency_ms is not None
        assert stats.completed == stats.submitted

    def test_stats_without_policy_report_none(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                ids = service.known_hosts()
                await frontend.query(ids[0], ids[1])
                return frontend.stats()

        stats = asyncio.run(scenario())
        assert stats.batch_wait_ms is None
        assert stats.arrival_rate is None

    def test_fixed_window_results_identical_to_no_policy(self, service):
        ids = service.known_hosts()

        async def with_policy(policy):
            async with AsyncDistanceFrontend(service, policy=policy) as frontend:
                return await asyncio.gather(
                    *(frontend.query(ids[i], ids[-1 - i]) for i in range(12))
                )

        plain = asyncio.run(with_policy(None))
        fixed = asyncio.run(with_policy(FixedWindowPolicy(0.5)))
        adaptive = asyncio.run(with_policy(AdaptiveBatchPolicy()))
        assert plain == fixed == adaptive


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestMinimalPolicySurface:
    def test_policy_with_only_required_methods_works_end_to_end(self, service):
        """The documented duck-type surface is exactly three methods;
        dispatch and stats() must both work without the introspection
        properties."""

        class Minimal:
            observed = 0

            def note_arrival(self, count=1):
                pass

            def wait_seconds(self, pending):
                return 0.0

            def observe(self, batch_size, dispatch_seconds):
                self.observed += 1

        async def scenario():
            policy = Minimal()
            async with AsyncDistanceFrontend(service, policy=policy) as frontend:
                ids = service.known_hosts()
                await frontend.query(ids[0], ids[1])
                # observe() runs on the dispatcher's continuation after
                # the caller is woken; give the loop a beat.
                for _ in range(100):
                    if policy.observed:
                        break
                    await asyncio.sleep(0.001)
                stats = frontend.stats()
            return policy, stats

        policy, stats = asyncio.run(scenario())
        assert policy.observed >= 1
        assert stats.batch_wait_ms is None  # absent property -> None
        assert stats.dispatch_latency_ms is None
