"""Unit tests for the overload-robustness tier: deadline budgets,
admission control, retry budgets, and brownout degradation.

Everything here is deterministic — fake clocks, fake clients, no real
sockets. The same contracts against real shard processes live in
``test_overload_e2e.py``.
"""

import asyncio

import numpy as np
import pytest

from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ShardUnavailableError,
    ValidationError,
)
from repro.serving import (
    AsyncDistanceFrontend,
    DistanceService,
    PredictionCache,
    ReplicaGroup,
    StalePrediction,
)
from repro.serving.transport import Deadline, RetryBudget
from repro.serving.transport.protocol import DEADLINE_FIELD
from repro.serving.transport.router import ShardedQueryRouter


def run(coroutine):
    return asyncio.run(coroutine)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


N_HOSTS = 12
DIMENSION = 4


@pytest.fixture
def service():
    rng = np.random.default_rng(5)
    ids = [f"h{i}" for i in range(N_HOSTS)]
    return DistanceService.from_vectors(
        ids,
        rng.random((N_HOSTS, DIMENSION)) + 0.5,
        rng.random((N_HOSTS, DIMENSION)) + 0.5,
        landmark_ids=ids[:4],
    )


# ---------------------------------------------------------------------- #
# Deadline: the budget object itself
# ---------------------------------------------------------------------- #


class TestDeadline:
    def test_budget_shrinks_with_the_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired()
        clock.advance(0.6)
        assert deadline.remaining() == pytest.approx(0.4)
        clock.advance(0.5)
        assert deadline.expired()
        assert deadline.remaining() == 0.0  # never negative

    def test_header_value_is_remaining_milliseconds(self):
        clock = FakeClock()
        deadline = Deadline.after(0.25, clock=clock)
        assert deadline.header_value() == pytest.approx(250.0)
        clock.advance(0.1)
        assert deadline.header_value() == pytest.approx(150.0)

    def test_wire_roundtrip_reanchors_on_the_receiver_clock(self):
        sender, receiver = FakeClock(), FakeClock()
        receiver.now = 1e6  # the two processes share no epoch
        deadline = Deadline.after(0.5, clock=sender)
        sender.advance(0.2)
        fields = {DEADLINE_FIELD: deadline.header_value()}
        arrived = Deadline.from_fields(fields, clock=receiver)
        assert arrived.remaining() == pytest.approx(0.3)

    def test_from_fields_is_tolerant(self):
        """Absent or malformed budgets degrade to None, never raise —
        an old or buggy peer must not poison the connection."""
        assert Deadline.from_fields({}) is None
        assert Deadline.from_fields({DEADLINE_FIELD: None}) is None
        assert Deadline.from_fields({DEADLINE_FIELD: "soon"}) is None
        assert Deadline.from_fields({DEADLINE_FIELD: float("inf")}) is None
        assert Deadline.from_fields({DEADLINE_FIELD: float("nan")}) is None
        assert Deadline.from_fields({DEADLINE_FIELD: 10**400}) is None

    def test_negative_budget_arrives_expired(self):
        clock = FakeClock()
        arrived = Deadline.from_fields({DEADLINE_FIELD: -50.0}, clock=clock)
        assert arrived is not None
        assert arrived.expired()


# ---------------------------------------------------------------------- #
# RetryBudget: the token bucket bounding retry amplification
# ---------------------------------------------------------------------- #


class TestRetryBudget:
    def test_parameters_are_validated(self):
        with pytest.raises(ValidationError):
            RetryBudget(max_tokens=0)
        with pytest.raises(ValidationError):
            RetryBudget(per_call=-0.1)

    def test_spend_drains_then_refuses(self):
        budget = RetryBudget(max_tokens=2.0, per_call=0.0)
        assert budget.spend()
        assert budget.spend()
        assert not budget.spend()
        assert not budget.spend()
        assert budget.exhausted == 2

    def test_successes_earn_tokens_back_up_to_the_cap(self):
        budget = RetryBudget(max_tokens=2.0, per_call=0.5)
        for _ in range(2):
            budget.spend()
        assert not budget.spend()
        budget.record_success()
        budget.record_success()
        assert budget.tokens == pytest.approx(1.0)
        assert budget.spend()
        for _ in range(100):
            budget.record_success()
        assert budget.tokens == pytest.approx(2.0)  # capped


# ---------------------------------------------------------------------- #
# DistanceService: deadline checks ahead of engine work
# ---------------------------------------------------------------------- #


class TestServiceDeadline:
    def test_expired_deadline_rejects_before_evaluation(self, service):
        clock = FakeClock()
        deadline = Deadline.after(0.05, clock=clock)
        clock.advance(0.1)
        with pytest.raises(DeadlineExceededError):
            service.query("h1", "h2", deadline=deadline)
        assert service.health().deadline_rejected == 1

    def test_live_deadline_evaluates_normally(self, service):
        deadline = Deadline.after(30.0)
        value = service.query("h1", "h2", deadline=deadline)
        assert value == pytest.approx(service.engine.point("h1", "h2"))
        assert service.health().deadline_rejected == 0

    def test_cache_hit_beats_the_deadline_check(self, service):
        """A free answer is served even to an expired caller — the
        shed exists to protect compute, and a cache hit costs none."""
        service.query("h3", "h4")  # populates the cache
        clock = FakeClock()
        deadline = Deadline.after(0.05, clock=clock)
        clock.advance(1.0)
        value = service.query("h3", "h4", deadline=deadline)
        assert value == pytest.approx(service.engine.point("h3", "h4"))
        assert service.health().deadline_rejected == 0


# ---------------------------------------------------------------------- #
# Frontend: submit-time rejection, queued shed, brownout stale serving
# ---------------------------------------------------------------------- #


class _SaturatedBackend:
    """Async backend whose reads always refuse admission."""

    def __init__(self, cache):
        self.cache = cache
        self.write_epoch = 0
        self.calls = 0

    def cache_put_if_current(self, *args):
        return False

    def cache_put_many_if_current(self, *args):
        return 0

    async def point(self, source_id, destination_id, deadline=None):
        self.calls += 1
        raise OverloadedError("shard saturated", retry_after=0.05)

    async def pairs(self, source_ids, destination_ids, deadline=None):
        self.calls += 1
        raise OverloadedError("shard saturated", retry_after=0.05)

    async def one_to_many_batch(self, source_ids, destination_ids):
        raise OverloadedError("shard saturated")

    async def k_nearest_batch(self, source_ids, ks, candidate_ids):
        raise OverloadedError("shard saturated")


class TestFrontendDeadline:
    def test_expired_budget_is_rejected_at_submit(self, service):
        clock = FakeClock()

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                deadline = Deadline.after(0.01, clock=clock)
                clock.advance(1.0)
                future = frontend.submit("h1", "h2", deadline=deadline)
                with pytest.raises(DeadlineExceededError) as caught:
                    await future
                assert "before the query could be enqueued" in str(caught.value)
                return frontend.stats()

        stats = run(scenario())
        assert stats.deadline_rejected == 1
        assert stats.batches == 0  # never entered the queue

    def test_budget_expiring_while_queued_is_shed_at_dispatch(self, service):
        clock = FakeClock()

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                doomed = frontend.submit(
                    "h1", "h2", deadline=Deadline.after(0.5, clock=clock)
                )
                healthy = frontend.submit("h3", "h4")
                # The budget lapses between enqueue and batch cut.
                clock.advance(1.0)
                with pytest.raises(DeadlineExceededError) as caught:
                    await doomed
                assert "while queued" in str(caught.value)
                value = await healthy
                return value, frontend.stats()

        value, stats = run(scenario())
        # The live neighbor rode the same cycle unharmed.
        assert value == pytest.approx(service.engine.point("h3", "h4"))
        assert stats.deadline_shed == 1
        assert stats.deadline_rejected == 0

    def test_live_deadlines_ride_through_to_answers(self, service):
        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                futures = [
                    frontend.submit("h1", f"h{i}", deadline=Deadline.after(30.0))
                    for i in range(2, 6)
                ]
                return [await future for future in futures]

        values = run(scenario())
        for i, value in zip(range(2, 6), values):
            assert value == pytest.approx(service.engine.point("h1", f"h{i}"))

    def test_coalesced_batch_forwards_the_earliest_deadline(self):
        backend = _DeadlineRecorder()
        budgets = [Deadline.after(s) for s in (30.0, 5.0, 60.0)]
        run(_submit_all(backend, budgets))
        assert backend.received == [("pairs", budgets[1])]

    def test_partly_bounded_batch_forwards_no_deadline(self):
        backend = _DeadlineRecorder()
        budgets = [Deadline.after(5.0), None, Deadline.after(30.0)]
        run(_submit_all(backend, budgets))
        assert backend.received == [("pairs", None)]

    def test_lone_point_query_forwards_its_own_deadline(self):
        backend = _DeadlineRecorder()
        budget = Deadline.after(30.0)
        run(_submit_all(backend, [budget]))
        assert backend.received == [("point", budget)]


class _DeadlineRecorder:
    """Async backend that records the deadline each point read gets."""

    def __init__(self):
        self.cache = PredictionCache()
        self.write_epoch = 0
        self.received = []

    def cache_put_if_current(self, *args):
        return False

    def cache_put_many_if_current(self, *args):
        return 0

    async def point(self, source_id, destination_id, deadline=None):
        self.received.append(("point", deadline))
        return 1.0

    async def pairs(self, source_ids, destination_ids, deadline=None):
        self.received.append(("pairs", deadline))
        return np.ones(len(source_ids))

    async def one_to_many_batch(self, source_ids, destination_ids):
        return [np.ones(len(hosts)) for hosts in destination_ids]

    async def k_nearest_batch(self, source_ids, ks, candidate_ids):
        return [[] for _ in source_ids]


async def _submit_all(backend, deadlines):
    """Submit one point query per deadline into a single cycle."""
    async with AsyncDistanceFrontend(backend) as frontend:
        futures = [
            frontend.submit("a", f"b{i}", deadline=deadline)
            for i, deadline in enumerate(deadlines)
        ]
        return [await future for future in futures]


class TestFrontendBrownout:
    def test_overload_serves_ttl_expired_entry_as_stale(self):
        clock = FakeClock()
        cache = PredictionCache(max_entries=16, ttl=1.0, clock=clock)
        backend = _SaturatedBackend(cache)
        cache.put("a", "b", 7.25)
        clock.advance(5.0)  # entry lapses: fresh reads miss

        async def scenario():
            async with AsyncDistanceFrontend(backend) as frontend:
                value = await frontend.query("a", "b")
                return value, frontend.stats()

        value, stats = run(scenario())
        assert isinstance(value, StalePrediction)
        assert value == pytest.approx(7.25)
        assert getattr(value, "stale", False)
        assert stats.stale_served == 1

    def test_overload_without_cached_remains_fails_with_overloaded(self):
        cache = PredictionCache(max_entries=16, ttl=1.0)
        backend = _SaturatedBackend(cache)

        async def scenario():
            async with AsyncDistanceFrontend(backend) as frontend:
                with pytest.raises(OverloadedError) as caught:
                    await frontend.query("never", "cached")
                return caught.value, frontend.stats()

        error, stats = run(scenario())
        assert error.retry_after == pytest.approx(0.05)
        assert stats.stale_served == 0


# ---------------------------------------------------------------------- #
# Router: brownout through the scatter-gather tier
# ---------------------------------------------------------------------- #


class _Reply:
    def __init__(self, fields):
        self.fields = fields


class _RouterFakeClient:
    """The client surface the router dispatches against; reads refuse
    admission so every point query hits the brownout path."""

    def __init__(self):
        self.shard_index = None
        self.calls = []

    async def call(self, op, fields=None, arrays=None, deadline=None):
        self.calls.append(op)
        raise OverloadedError("admission refused", retry_after=0.1)

    async def close(self):
        pass


class TestRouterBrownout:
    def test_overloaded_shard_serves_stale_cache_entry(self):
        clock = FakeClock()
        client = _RouterFakeClient()
        router = ShardedQueryRouter([client], cache_ttl=1.0, clock=clock)
        router.cache.put("a", "b", 3.5)
        clock.advance(10.0)  # past TTL: only get_stale still sees it

        value = run(router.point("a", "b"))
        assert isinstance(value, StalePrediction)
        assert value == pytest.approx(3.5)
        assert client.calls == ["point"]  # the shard WAS tried first

    def test_never_cached_pair_reraises_the_overload(self):
        router = ShardedQueryRouter([_RouterFakeClient()], cache_ttl=1.0)
        with pytest.raises(OverloadedError) as caught:
            run(router.point("x", "y"))
        assert caught.value.retry_after == pytest.approx(0.1)

    def test_lone_frontend_query_reaches_the_refusing_shard_once(self):
        client = _RouterFakeClient()
        router = ShardedQueryRouter([client], cache_ttl=1.0)

        async def scenario():
            async with AsyncDistanceFrontend(router) as frontend:
                with pytest.raises(OverloadedError):
                    await frontend.query("x", "y")
                return frontend.stats()

        stats = run(scenario())
        assert client.calls == ["point"]
        assert stats.completed == stats.submitted == 1


# ---------------------------------------------------------------------- #
# ReplicaGroup: overload is a routing signal, not a death certificate
# ---------------------------------------------------------------------- #


class _Replica:
    """Scripted replica client (same surface as test_replica's fake)."""

    def __init__(self, address, script=None):
        self.address = address
        self.shard_index = None
        self.in_flight = 0
        self.max_in_flight = 32
        self.pool_size = 1
        self.calls = []
        self.script = dict(script or {})

    async def call(self, op, fields=None, arrays=None, deadline=None):
        self.calls.append(op)
        outcome = self.script.get(op)
        if isinstance(outcome, list):
            outcome = outcome.pop(0) if outcome else None
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome if outcome is not None else {"ok": self.address}

    async def close(self):
        pass


def states_of(group):
    return {r.address: r.state for r in group.replica_health()}


class TestReplicaOverload:
    def test_overloaded_replica_fails_over_without_darkening(self):
        saturated = _Replica("a:1", {"point": OverloadedError("full")})
        healthy = _Replica("b:2")
        group = ReplicaGroup([saturated, healthy], shard_index=1)
        response = run(group.call("point", {"source": "x"}))
        assert response == {"ok": "b:2"}
        assert group.failovers == 1
        # Saturated is alive — it must stay in the rotation, not be
        # scheduled for repair like a dead socket would be.
        assert states_of(group) == {"a:1": "active", "b:2": "active"}

    def test_all_replicas_overloaded_raises_overloaded(self):
        group = ReplicaGroup(
            [
                _Replica("a:1", {"point": OverloadedError("full", 0.2)}),
                _Replica("b:2", {"point": OverloadedError("full", 0.3)}),
            ],
            shard_index=1,
        )
        with pytest.raises(OverloadedError):
            run(group.call("point", {}))
        assert group.overload_events == 1
        assert states_of(group) == {"a:1": "active", "b:2": "active"}

    def test_simultaneous_sibling_failures_do_not_darken_the_group(self):
        """The darkening fix: an all-fail pass is a group-level
        overload signal (correlated saturation), not N independent
        deaths — no replica state changes without differential
        evidence from a sibling success."""
        first = _Replica("a:1", {"point": [ShardUnavailableError("t/o")]})
        second = _Replica("b:2", {"point": [ShardUnavailableError("t/o")]})
        group = ReplicaGroup([first, second], shard_index=4)
        with pytest.raises(ShardUnavailableError):
            run(group.call("point", {}))
        assert states_of(group) == {"a:1": "active", "b:2": "active"}
        assert group.overload_events == 1
        # The next pass succeeds on both: the scripted failures are
        # consumed and nobody was sidelined meanwhile.
        assert run(group.call("point", {})) in ({"ok": "a:1"}, {"ok": "b:2"})

    def test_sibling_success_still_darkens_the_genuinely_dead(self):
        dead = _Replica("a:1", {"point": ShardUnavailableError("down")})
        alive = _Replica("b:2")
        group = ReplicaGroup([dead, alive], shard_index=2)
        run(group.call("point", {}))
        assert states_of(group)["a:1"] == "dark"
        assert states_of(group)["b:2"] == "active"
        assert group.overload_events == 0

    def test_mixed_overload_and_death_prefers_the_overload_verdict(self):
        """When the pass ends with at least one alive-but-saturated
        sibling, the slice is overloaded, not unavailable — callers
        should back off, not fail away from the slice."""
        group = ReplicaGroup(
            [
                _Replica("a:1", {"point": ShardUnavailableError("down")}),
                _Replica("b:2", {"point": OverloadedError("full")}),
            ],
            shard_index=2,
        )
        with pytest.raises(OverloadedError):
            run(group.call("point", {}))
        assert states_of(group) == {"a:1": "active", "b:2": "active"}

    def test_deadline_verdict_propagates_without_failover(self):
        """An expired budget is equally expired at every sibling:
        retrying it elsewhere only spends capacity the slice does not
        have."""
        expired = _Replica("a:1", {"point": DeadlineExceededError("late")})
        sibling = _Replica("b:2")
        group = ReplicaGroup([expired, sibling], shard_index=2)
        with pytest.raises(DeadlineExceededError):
            run(group.call("point", {}))
        assert sibling.calls == []
        assert group.failovers == 0
        assert states_of(group) == {"a:1": "active", "b:2": "active"}
