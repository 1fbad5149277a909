"""Unit tests for replica groups: failover, health scoring, fan-out.

Everything here runs against fake in-process clients so the failure
choreography is deterministic; real SIGKILLed processes are covered by
``test_replica_e2e.py``.
"""

import asyncio

import pytest

from repro.exceptions import (
    RemoteShardError,
    ShardUnavailableError,
    ValidationError,
)
from repro.serving import MetricsRegistry, ReplicaGroup, ShardReplicator
from repro.serving.transport.replica import FANOUT_OPS, SEQ_ALIGN_ID


def run(coroutine):
    return asyncio.run(coroutine)


class FakeClient:
    """The client surface a ReplicaGroup dispatches against.

    ``script`` maps op -> a result, an exception instance to raise, or
    a list consumed one entry per call (so a replica can die and then
    recover). Unscripted ops succeed with ``{"ok": address}``.
    """

    def __init__(self, address, script=None):
        self.address = address
        self.shard_index = None
        self.in_flight = 0
        self.max_in_flight = 32
        self.pool_size = 1
        self.calls = []
        self.closed = False
        self.bound_registries = []
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
        self.closed = True

    def bind_metrics(self, registry):
        self.bound_registries.append(registry)


def group_of(*clients, **kwargs):
    kwargs.setdefault("shard_index", 3)
    return ReplicaGroup(list(clients), **kwargs)


class TestConstruction:
    def test_empty_group_is_rejected(self):
        with pytest.raises(ValidationError):
            ReplicaGroup([])

    def test_bad_latency_alpha_is_rejected(self):
        with pytest.raises(ValidationError):
            ReplicaGroup([FakeClient("a:1")], latency_alpha=0.0)

    def test_router_surface(self):
        group = group_of(FakeClient("a:1"), FakeClient("b:2"))
        assert group.address == "a:1|b:2"
        assert group.n_replicas == 2
        assert group.shard_index == 3

    def test_shard_index_propagates_to_members(self):
        first, second = FakeClient("a:1"), FakeClient("b:2")
        group = group_of(first, second)
        group.shard_index = 7
        assert first.shard_index == 7
        assert second.shard_index == 7

    def test_close_closes_every_member(self):
        first, second = FakeClient("a:1"), FakeClient("b:2")
        run(group_of(first, second).close())
        assert first.closed and second.closed


class TestReadFailover:
    def test_dead_replica_fails_over_to_sibling(self):
        dead = FakeClient("a:1", {"point": ShardUnavailableError("down")})
        alive = FakeClient("b:2")
        group = group_of(dead, alive)
        response = run(group.call("point", {"source": "x"}))
        assert response == {"ok": "b:2"}
        assert group.failovers == 1
        health = {r.address: r for r in group.replica_health()}
        assert health["a:1"].state == "dark"
        assert health["a:1"].failures == 1
        assert health["b:2"].state == "active"

    def test_all_replicas_dead_raises_with_shard_index(self):
        group = group_of(
            FakeClient("a:1", {"point": ShardUnavailableError("down")}),
            FakeClient("b:2", {"point": ShardUnavailableError("down")}),
            shard_index=5,
        )
        with pytest.raises(ShardUnavailableError) as caught:
            run(group.call("point", {}))
        assert caught.value.shard_index == 5
        # The last sibling's failure did not buy a retry: only actual
        # hand-offs to a sibling count as failovers.
        assert group.failovers == 1

    def test_live_server_error_raises_without_failover(self):
        """A replica answering *wrongly* is not a replica that is down."""
        strict = FakeClient("a:1", {"point": ValidationError("bad id")})
        sibling = FakeClient("b:2")
        group = group_of(strict, sibling)
        with pytest.raises(ValidationError):
            run(group.call("point", {}))
        assert sibling.calls == []
        assert group.failovers == 0
        assert all(r.state == "active" for r in group.replica_health())

    def test_reads_prefer_the_lower_latency_replica(self):
        slow, fast = FakeClient("slow:1"), FakeClient("fast:2")
        group = group_of(slow, fast)
        group._note_latency(group._replicas[0], 0.100)
        group._note_latency(group._replicas[1], 0.002)
        run(group.call("point", {}))
        assert fast.calls == ["point"]
        assert slow.calls == []

    def test_pipeline_depth_breaks_latency_ties(self):
        busy, idle = FakeClient("busy:1"), FakeClient("idle:2")
        busy.in_flight = 16
        group = group_of(busy, idle)
        run(group.call("point", {}))
        assert idle.calls == ["point"]


class TestDarkReprobe:
    def test_dark_replica_sidelined_until_reprobe_window(self):
        clock = [100.0]
        flaky = FakeClient(
            "a:1", {"point": [ShardUnavailableError("down")]}
        )
        steady = FakeClient("b:2")
        group = group_of(
            flaky, steady, reprobe_seconds=1.0, clock=lambda: clock[0]
        )
        run(group.call("point", {}))  # darkens flaky, serves via steady
        run(group.call("point", {}))  # inside the window: steady only
        assert flaky.calls == ["point"]
        clock[0] += 1.5
        # Past the window the dark replica is eligible again (after
        # the active ones); killing the sibling forces the retry there.
        steady.script["point"] = ShardUnavailableError("down")
        response = run(group.call("point", {}))
        assert response == {"ok": "a:1"}
        health = {r.address: r for r in group.replica_health()}
        assert health["a:1"].state == "active"
        assert health["b:2"].state == "dark"

    def test_fully_dark_group_still_tries_everything(self):
        clock = [0.0]
        revived = FakeClient(
            "a:1", {"point": [ShardUnavailableError("down")]}
        )
        dead = FakeClient("b:2", {"point": ShardUnavailableError("down")})
        group = group_of(
            revived, dead, reprobe_seconds=60.0, clock=lambda: clock[0]
        )
        with pytest.raises(ShardUnavailableError):
            run(group.call("point", {}))
        # Both dark, window far from expiring — but total sidelining
        # would turn a blip into a guaranteed error, so reads try all.
        assert run(group.call("point", {})) == {"ok": "a:1"}


class TestWriteFanout:
    def test_writes_reach_every_replica(self):
        first, second = FakeClient("a:1"), FakeClient("b:2")
        group = group_of(first, second)
        for op in sorted(FANOUT_OPS - {"shutdown"}):
            run(group.call(op, {}))
            assert first.calls[-1] == op
            assert second.calls[-1] == op

    def test_write_succeeds_when_one_replica_is_dead(self):
        dead = FakeClient("a:1", {"put_many": ShardUnavailableError("down")})
        alive = FakeClient("b:2")
        group = group_of(dead, alive)
        assert run(group.call("put_many", {})) == {"ok": "b:2"}
        health = {r.address: r for r in group.replica_health()}
        assert health["a:1"].state == "dark"

    def test_write_resurrects_a_dark_replica(self):
        flaky = FakeClient(
            "a:1", {"point": [ShardUnavailableError("down")]}
        )
        group = group_of(flaky, FakeClient("b:2"), reprobe_seconds=60.0)
        run(group.call("point", {}))
        assert group.replica_health()[0].state == "dark"
        run(group.call("put_many", {}))  # fan-out reaches dark replicas
        assert group.replica_health()[0].state == "active"

    def test_write_with_no_live_replica_raises(self):
        group = group_of(
            FakeClient("a:1", {"put_many": ShardUnavailableError("down")}),
            FakeClient("b:2", {"put_many": ShardUnavailableError("down")}),
            shard_index=2,
        )
        with pytest.raises(ShardUnavailableError) as caught:
            run(group.call("put_many", {}))
        assert caught.value.shard_index == 2

    def test_refused_write_counts_but_sibling_success_wins(self):
        """A live server refusing a write is not an availability event."""
        strict = FakeClient("a:1", {"put_many": RemoteShardError("refused")})
        alive = FakeClient("b:2")
        group = group_of(strict, alive)
        assert run(group.call("put_many", {})) == {"ok": "b:2"}
        health = {r.address: r for r in group.replica_health()}
        assert health["a:1"].state == "active"
        assert health["a:1"].failures == 1

    def test_refused_write_raises_when_no_sibling_accepted(self):
        group = group_of(
            FakeClient("a:1", {"put_many": RemoteShardError("refused")}),
            FakeClient("b:2", {"put_many": ShardUnavailableError("down")}),
        )
        with pytest.raises(RemoteShardError):
            run(group.call("put_many", {}))


class TestProbe:
    def test_probe_refreshes_states_and_returns_live_answer(self):
        recovered = FakeClient(
            "a:1", {"point": [ShardUnavailableError("down")]}
        )
        steady = FakeClient("b:2")
        group = group_of(recovered, steady, reprobe_seconds=60.0)
        run(group.call("point", {}))
        assert group.replica_health()[0].state == "dark"
        answer = run(group.probe())
        assert answer["ok"] in {"a:1", "b:2"}
        assert all(r.state == "active" for r in group.replica_health())

    def test_probe_with_all_dead_raises(self):
        group = group_of(
            FakeClient("a:1", {"health": ShardUnavailableError("down")}),
            FakeClient("b:2", {"health": ShardUnavailableError("down")}),
            shard_index=4,
        )
        with pytest.raises(ShardUnavailableError) as caught:
            run(group.probe())
        assert caught.value.shard_index == 4


class RecordingClient(FakeClient):
    """FakeClient that also records the fields of every call."""

    def __init__(self, address, script=None):
        super().__init__(address, script)
        self.recorded = []

    async def call(self, op, fields=None, arrays=None, deadline=None):
        self.recorded.append((op, dict(fields or {})))
        return await super().call(op, fields, arrays, deadline=deadline)


class TestCatchUpGating:
    """A resurrected replica must prove catch-up before serving reads."""

    def test_lagging_ack_demotes_to_catching_up_and_excludes_reads(self):
        async def flow():
            ahead = FakeClient("a:1", {
                "put_many": {"stored": 1, "seq": 5},
                "digest": {"digest": "X", "seq": 5},
            })
            behind = FakeClient("b:2", {
                "put_many": {"stored": 1, "seq": 3},
                "digest": {"digest": "Y", "seq": 3},
            })
            group = group_of(ahead, behind)
            await group.call("put_many", {})
            health = {r.address: r for r in group.replica_health()}
            assert health["b:2"].state == "catching_up"
            assert health["b:2"].seq_lag == 2
            assert health["a:1"].state == "active"
            # Reads never touch a catching-up replica, even as the
            # scheduled (and here unsuccessful) repair keeps retrying.
            for _ in range(5):
                await group.call("point", {})
            assert "point" not in behind.calls
            await group.close()

        run(flow())

    def test_replay_catch_up_readmits_the_replica(self):
        async def flow():
            ahead = FakeClient("a:1", {
                "put_many": {"stored": 1, "seq": 5},
                "digest": {"digest": "X", "seq": 5},
                "journal_since": [
                    {
                        "entries": [
                            {"seq": 4, "op": "delete", "ids": ["d1"]},
                            {"seq": 5, "op": "delete", "ids": ["d2"]},
                        ],
                        "seq": 5,
                        "truncated": False,
                    },
                    {"entries": [], "seq": 5, "truncated": False},
                ],
            })
            behind = FakeClient("b:2", {
                "put_many": {"stored": 1, "seq": 3},
                "digest": [
                    {"digest": "Y", "seq": 3},
                    {"digest": "X", "seq": 5},
                ],
            })
            group = group_of(ahead, behind)
            await group.call("put_many", {})
            assert group._replicas[1].state == "catching_up"
            repaired = await group._replicas[1].repair_task
            assert repaired
            health = {r.address: r for r in group.replica_health()}
            assert health["b:2"].state == "active"
            assert health["b:2"].repairs == 1
            assert health["b:2"].last_repair_seconds is not None
            # The replayed entries were applied to the laggard.
            assert behind.calls.count("delete") == 2
            await group.close()

        run(flow())

    def test_digest_equal_but_seq_behind_gets_alignment_stamp(self):
        async def flow():
            ahead = FakeClient("a:1", {
                "put_many": {"stored": 1, "seq": 5},
                "digest": {"digest": "X", "seq": 5},
            })
            behind = RecordingClient("b:2", {
                "put_many": {"stored": 1, "seq": 3},
                "digest": {"digest": "X", "seq": 3},
            })
            group = group_of(ahead, behind)
            await group.call("put_many", {})
            repaired = await group._replicas[1].repair_task
            assert repaired
            assert group._replicas[1].state == "active"
            # Equal content, trailing counter: the no-op stamp jumps
            # the replica to the source's high-water mark so the next
            # write ack does not demote it again.
            assert (
                "delete",
                {"id": SEQ_ALIGN_ID, "seq": 5},
            ) in behind.recorded
            await group.close()

        run(flow())

    def test_stale_resurrected_replica_never_serves_before_catch_up(self):
        """ISSUE 9 acceptance: ack alone no longer re-admits a replica."""
        async def flow():
            flaky = FakeClient("a:1", {
                "point": [ShardUnavailableError("down")],
                "put_many": {"stored": 1, "seq": 1},
                "digest": {"digest": "stale", "seq": 1},
            })
            steady = FakeClient("b:2", {
                "put_many": {"stored": 1, "seq": 2},
                "digest": {"digest": "fresh", "seq": 2},
            })
            group = group_of(flaky, steady, reprobe_seconds=0.0)
            await group.call("point", {})  # darkens flaky
            await group.call("put_many", {})  # flaky acks, but behind
            assert group._replicas[0].state == "catching_up"
            # reprobe window is zero — under pre-journal rules the dark
            # replica would be read-eligible again; now it must not be.
            answer = await group.call("point", {})
            assert answer == {"ok": "b:2"}
            assert flaky.calls.count("point") == 1
            await group.close()

        run(flow())

    def test_probe_gates_on_journal_seq(self):
        async def flow():
            ahead = FakeClient("a:1", {
                "health": {"journal_seq": 7},
                "digest": {"digest": "X", "seq": 7},
            })
            behind = FakeClient("b:2", {
                "health": {"journal_seq": 4},
                "digest": {"digest": "Y", "seq": 4},
            })
            group = group_of(ahead, behind)
            await group.probe()
            assert group._replicas[0].state == "active"
            assert group._replicas[1].state == "catching_up"
            await group.close()

        run(flow())

    def test_seqless_acks_keep_the_legacy_contract(self):
        """Pre-journal servers ack without a seq: resurrect on ack."""
        async def flow():
            flaky = FakeClient(
                "a:1", {"point": [ShardUnavailableError("down")]}
            )
            group = group_of(flaky, FakeClient("b:2"))
            await group.call("point", {})
            assert group._replicas[0].state == "dark"
            await group.call("put_many", {})
            assert group._replicas[0].state == "active"
            await group.close()

        run(flow())


class TestAntiEntropyRound:
    def test_repair_converges_a_diverged_replica(self):
        async def flow():
            ahead = FakeClient("a:1", {
                "digest": {"digest": "X", "seq": 4},
            })
            behind = FakeClient("b:2", {
                "digest": [
                    {"digest": "Y", "seq": 2},
                    {"digest": "Y", "seq": 2},
                    {"digest": "X", "seq": 4},
                ],
            })
            group = group_of(ahead, behind)
            report = await group.repair()
            assert report["a:1"]["role"] == "source"
            assert report["b:2"]["repaired"] is True
            assert group._replicas[1].state == "active"
            await group.close()

        run(flow())

    def test_repair_marks_unreachable_replicas_dark(self):
        async def flow():
            alive = FakeClient("a:1", {"digest": {"digest": "X", "seq": 1}})
            dead = FakeClient(
                "b:2", {"digest": ShardUnavailableError("down")}
            )
            group = group_of(alive, dead)
            report = await group.repair()
            assert "error" in report["b:2"]
            assert group._replicas[1].state == "dark"
            assert group._replicas[0].state == "active"
            await group.close()

        run(flow())

    def test_anti_entropy_loop_runs_and_close_cancels_it(self):
        async def flow():
            first = FakeClient("a:1", {"digest": {"digest": "X", "seq": 1}})
            second = FakeClient("b:2", {"digest": {"digest": "X", "seq": 1}})
            group = group_of(first, second)
            with pytest.raises(ValidationError):
                group.start_anti_entropy(0.0)
            group.start_anti_entropy(0.005)
            await asyncio.sleep(0.05)
            assert "digest" in first.calls
            assert "digest" in second.calls
            task = group._anti_entropy_task
            await group.close()
            assert task.cancelled()

        run(flow())


class TestMetrics:
    def test_bind_metrics_exports_replica_series(self):
        registry = MetricsRegistry()
        dead = FakeClient("a:1", {"point": ShardUnavailableError("down")})
        alive = FakeClient("b:2")
        group = group_of(dead, alive)
        group.bind_metrics(registry)
        assert dead.bound_registries == [registry]
        run(group.call("point", {}))
        text = registry.render_prometheus()
        assert 'ides_replica_failovers_total{shard="3"} 1' in text
        assert 'ides_replica_state{shard="3",replica="a:1"} 0' in text
        assert 'ides_replica_state{shard="3",replica="b:2"} 1' in text
        assert 'ides_replica_failures_total{shard="3",replica="a:1"} 1' in text
        assert "ides_replica_rpc_seconds" in text

    def test_repair_series_track_lag_and_state(self):
        async def flow():
            registry = MetricsRegistry()
            ahead = FakeClient("a:1", {
                "put_many": {"stored": 1, "seq": 5},
                "digest": {"digest": "X", "seq": 5},
            })
            behind = FakeClient("b:2", {
                "put_many": {"stored": 1, "seq": 3},
                "digest": {"digest": "Y", "seq": 3},
            })
            group = group_of(ahead, behind)
            group.bind_metrics(registry)
            await group.call("put_many", {})
            text = registry.render_prometheus()
            assert 'ides_replica_state{shard="3",replica="b:2"} 0.5' in text
            assert 'ides_replica_seq_lag{shard="3",replica="b:2"} 2' in text
            assert 'ides_replica_seq_lag{shard="3",replica="a:1"} 0' in text
            assert (
                'ides_replica_repairs_total{shard="3",replica="b:2"} 0'
                in text
            )
            await group.close()

        run(flow())


class TestReplicatorSinkName:
    def test_sink_name_is_topology_not_position(self):
        replicator = ShardReplicator(
            [["127.0.0.1:9001", "127.0.0.1:9002"], "127.0.0.1:9003"],
            handshake=False,
        )
        try:
            assert replicator.sink_name == (
                "replicator[127.0.0.1:9001|127.0.0.1:9002;127.0.0.1:9003]"
            )
        finally:
            replicator.close()

    def test_flat_addresses_keep_the_flat_name(self):
        replicator = ShardReplicator(
            ["127.0.0.1:9001", "127.0.0.1:9002"], handshake=False
        )
        try:
            assert replicator.sink_name == (
                "replicator[127.0.0.1:9001;127.0.0.1:9002]"
            )
        finally:
            replicator.close()
