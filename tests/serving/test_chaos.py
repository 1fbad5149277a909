"""Unit tests for deterministic fault injection (transport.chaos)."""

import asyncio

import pytest

from repro.exceptions import (
    RemoteShardError,
    ShardUnavailableError,
    ValidationError,
)
from repro.serving.transport.chaos import (
    WRITE_OPS,
    ChaosClient,
    ChaosSchedule,
)


def run(coroutine):
    return asyncio.run(coroutine)


class Recorder:
    """Minimal client surface: records calls, returns a canned ack."""

    def __init__(self, address="fake:1"):
        self.address = address
        self.shard_index = None
        self.calls = []
        self.closed = False

    async def call(self, op, fields=None, arrays=None, deadline=None):
        self.calls.append((op, fields))
        return {"ok": self.address}

    async def close(self):
        self.closed = True


class TestChaosSchedule:
    def test_probabilities_are_validated(self):
        with pytest.raises(ValidationError):
            ChaosSchedule(drop=1.5)
        with pytest.raises(ValidationError):
            ChaosSchedule(delay_seconds=-1.0)

    def test_same_seed_replays_identically(self):
        first = ChaosSchedule(seed=42, drop=0.3, delay=0.2, duplicate=0.1)
        second = ChaosSchedule(seed=42, drop=0.3, delay=0.2, duplicate=0.1)
        ops = ["point", "put_many", "health", "delete"] * 25
        for op in ops:
            first.decide(op)
            second.decide(op)
        assert first.history == second.history

    def test_reset_rewinds_the_stream(self):
        schedule = ChaosSchedule(seed=7, drop=0.5, duplicate=0.5)
        before = [schedule.decide("point") for _ in range(50)]
        history = list(schedule.history)
        schedule.reset()
        assert schedule.history == []
        after = [schedule.decide("point") for _ in range(50)]
        assert before == after
        assert schedule.history == history

    def test_refusal_applies_only_to_writes(self):
        schedule = ChaosSchedule(seed=1, refuse_writes=1.0)
        assert not schedule.decide("point").refuse_write
        for op in sorted(WRITE_OPS):
            assert schedule.decide(op).refuse_write

    def test_stream_position_is_independent_of_enabled_faults(self):
        """Zeroing one probability must not shift the other draws."""
        with_drop = ChaosSchedule(seed=9, drop=0.5, duplicate=0.5)
        without = ChaosSchedule(seed=9, drop=0.0, duplicate=0.5)
        for _ in range(100):
            with_drop.decide("point")
            without.decide("point")
        assert [d.duplicate for d in with_drop.history] == [
            d.duplicate for d in without.history
        ]

    def test_slow_read_applies_only_to_reads(self):
        schedule = ChaosSchedule(seed=3, slow_read=1.0)
        assert schedule.decide("point").slow_read
        assert schedule.decide("gather").slow_read
        for op in sorted(WRITE_OPS):
            assert not schedule.decide(op).slow_read

    def test_slow_read_probability_does_not_shift_other_draws(self):
        """Enabling slow reads must not reposition the PRNG stream."""
        with_slow = ChaosSchedule(seed=9, drop=0.5, slow_read=0.7)
        without = ChaosSchedule(seed=9, drop=0.5, slow_read=0.0)
        for _ in range(100):
            with_slow.decide("point")
            without.decide("point")
        assert [d.drop for d in with_slow.history] == [
            d.drop for d in without.history
        ]

    def test_slow_read_parameters_are_validated(self):
        with pytest.raises(ValidationError):
            ChaosSchedule(slow_read=1.5)
        with pytest.raises(ValidationError):
            ChaosSchedule(slow_read_seconds=-0.1)


class TestChaosClient:
    def test_clean_schedule_forwards_everything(self):
        inner = Recorder()
        client = ChaosClient(inner, ChaosSchedule(seed=0))
        assert run(client.call("point", {"source": "x"})) == {"ok": "fake:1"}
        assert inner.calls == [("point", {"source": "x"})]
        assert client.dropped == client.refused_writes == 0

    def test_drop_raises_unavailable_without_forwarding(self):
        inner = Recorder()
        client = ChaosClient(inner, ChaosSchedule(seed=0, drop=1.0))
        with pytest.raises(ShardUnavailableError):
            run(client.call("point", {}))
        assert inner.calls == []
        assert client.dropped == 1

    def test_refused_write_raises_remote_error(self):
        inner = Recorder()
        client = ChaosClient(
            inner, ChaosSchedule(seed=0, refuse_writes=1.0)
        )
        with pytest.raises(RemoteShardError):
            run(client.call("put_many", {}))
        assert inner.calls == []
        assert client.refused_writes == 1
        # Reads pass through the same schedule untouched.
        assert run(client.call("point", {})) == {"ok": "fake:1"}

    def test_duplicate_forwards_twice(self):
        inner = Recorder()
        client = ChaosClient(inner, ChaosSchedule(seed=0, duplicate=1.0))
        run(client.call("put_many", {"ids": ["a"]}))
        assert [op for op, _ in inner.calls] == ["put_many", "put_many"]
        assert client.duplicated == 1

    def test_delegation_and_shard_index_passthrough(self):
        inner = Recorder()
        client = ChaosClient(inner, ChaosSchedule(seed=0))
        client.shard_index = 5
        assert inner.shard_index == 5
        assert client.shard_index == 5
        assert client.address == "fake:1"
        run(client.close())
        assert inner.closed

    def test_slow_read_stalls_then_forwards(self):
        inner = Recorder()
        client = ChaosClient(
            inner, ChaosSchedule(seed=0, slow_read=1.0, slow_read_seconds=0.01)
        )

        async def timed():
            loop = asyncio.get_running_loop()
            started = loop.time()
            response = await client.call("point", {"source": "x"})
            return response, loop.time() - started

        response, elapsed = run(timed())
        assert response == {"ok": "fake:1"}
        assert elapsed >= 0.01
        assert client.slowed_reads == 1
        assert inner.calls == [("point", {"source": "x"})]
        # Writes never stall: the slow-read fault models queue
        # saturation on the read path only.
        run(client.call("put_many", {"ids": []}))
        assert client.slowed_reads == 1

    def test_drop_carries_the_shard_index(self):
        inner = Recorder()
        client = ChaosClient(inner, ChaosSchedule(seed=0, drop=1.0))
        client.shard_index = 2
        with pytest.raises(ShardUnavailableError) as caught:
            run(client.call("point", {}))
        assert caught.value.shard_index == 2
