"""End-to-end replica tests: real shard processes under real SIGKILLs.

The acceptance scenario of the replication tier: a 2-slice x 2-replica
cluster answers queries identical to a single-process engine, keeps
answering — zero caller-visible errors — while one replica per slice
is killed mid-session, and a standby re-seeded from the service
snapshot is bit-equal to the survivor. The deterministic failure
choreography (scoring, reprobe windows, fan-out semantics) lives in
``test_replica.py``; this file proves it against real processes.
"""

import asyncio

import numpy as np
import pytest

from repro.exceptions import ShardUnavailableError
from repro.serving import (
    DistanceService,
    RemoteShardClient,
    ShardReplicator,
    connect_replica_router,
    save_snapshot,
    shard_of,
    spawn_shard_process,
)

N_SLICES = 2
REPLICAS = 2
N_HOSTS = 32
DIMENSION = 5


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def service():
    rng = np.random.default_rng(31)
    ids = [f"r{i}" for i in range(N_HOSTS)]
    return DistanceService.from_vectors(
        ids,
        rng.random((N_HOSTS, DIMENSION)) + 0.5,
        rng.random((N_HOSTS, DIMENSION)) + 0.5,
        landmark_ids=ids[:6],
    )


@pytest.fixture
def snapshot_path(service, tmp_path):
    return str(save_snapshot(service.snapshot(), tmp_path / "seed.npz"))


@pytest.fixture
def cluster(snapshot_path):
    """2 slices x 2 replicas, every replica seeded from the snapshot."""
    processes = [
        [
            spawn_shard_process(
                slice_index, N_SLICES, snapshot_path=snapshot_path
            )
            for _ in range(REPLICAS)
        ]
        for slice_index in range(N_SLICES)
    ]
    try:
        yield processes, [
            [process.address for process in members] for members in processes
        ]
    finally:
        for members in processes:
            for process in members:
                process.stop()


class TestReplicaEndToEnd:
    def test_kill_one_replica_per_slice_queries_never_error(
        self, service, cluster
    ):
        processes, groups = cluster
        ids = service.known_hosts()
        picks = [(ids[i], ids[(i * 7 + 3) % N_HOSTS]) for i in range(20)]

        async def scenario():
            router = await connect_replica_router(
                groups, timeout=2.0, retries=0, reprobe_seconds=30.0
            )
            try:
                before = [await router.point(s, d) for s, d in picks]
                # SIGKILL one replica of EVERY slice mid-session: the
                # one each group reads first, so a failover must occur.
                for members, group in zip(processes, router.clients):
                    preferred = group._read_candidates()[0].client.address
                    for process in members:
                        if "%s:%d" % process.address == preferred:
                            process.kill()
                after = [await router.point(s, d) for s, d in picks]
                fan_out = await router.pairs(ids[:8], ids[8:16])
                health = await router.health()
                return before, after, fan_out, health
            finally:
                await router.close()

        before, after, fan_out, health = run(scenario())
        for (s, d), first, second in zip(picks, before, after):
            truth = service.engine.point(s, d)
            assert first == pytest.approx(truth)
            assert second == pytest.approx(truth)
        np.testing.assert_allclose(
            fan_out, service.engine.pairs(ids[:8], ids[8:16])
        )
        # Every slice still reachable, each reporting its dead member.
        assert health.unreachable_shards == 0
        for shard in health.shards:
            assert shard.reachable
            assert len(shard.replicas) == REPLICAS
            assert shard.dark_replicas == 1
        assert sum(s.failovers for s in health.shards) >= 1

    def test_both_replicas_dead_surfaces_the_right_slice(
        self, service, cluster
    ):
        processes, groups = cluster
        ids = service.known_hosts()
        dead_ids = [i for i in ids if shard_of(i, N_SLICES) == 0]
        live_ids = [i for i in ids if shard_of(i, N_SLICES) == 1]

        async def scenario():
            router = await connect_replica_router(
                groups, timeout=1.0, retries=0
            )
            try:
                for process in processes[0]:
                    process.kill()
                with pytest.raises(ShardUnavailableError) as failure:
                    await router.point(dead_ids[0], dead_ids[1])
                assert failure.value.shard_index == 0
                # The surviving slice keeps serving.
                survivor = await router.pairs(live_ids[:4], live_ids[4:8])
                health = await router.health()
                return survivor, health
            finally:
                await router.close()

        survivor, health = run(scenario())
        np.testing.assert_allclose(
            survivor, service.engine.pairs(live_ids[:4], live_ids[4:8])
        )
        assert health.unreachable_shards == 1
        assert not health.shards[0].reachable
        assert health.shards[0].dark_replicas == REPLICAS
        assert health.shards[1].reachable

    def test_reseeded_standby_is_bit_equal_to_survivor(
        self, service, cluster, snapshot_path
    ):
        """Warm-standby contract: snapshot re-seed reproduces the
        slice bit for bit, so promotion never changes an answer."""
        processes, _ = cluster
        replacement = spawn_shard_process(
            0, N_SLICES, snapshot_path=snapshot_path
        )
        slice_ids = [
            i for i in service.known_hosts() if shard_of(i, N_SLICES) == 0
        ]

        async def gather(address):
            client = RemoteShardClient(*address, timeout=5.0)
            try:
                response = await client.call(
                    "gather", {"ids": slice_ids, "which": "both"}
                )
                return (
                    np.array(response.array("outgoing")),
                    np.array(response.array("incoming")),
                )
            finally:
                await client.close()

        try:
            survivor_out, survivor_in = run(gather(processes[0][0].address))
            standby_out, standby_in = run(gather(replacement.address))
        finally:
            replacement.stop()
        assert np.array_equal(survivor_out, standby_out)
        assert np.array_equal(survivor_in, standby_in)

    def test_replicator_fans_refresh_writes_to_all_replicas(
        self, service, cluster
    ):
        """The refresh stream keeps EVERY replica convergent: after a
        flush through ShardReplicator, both members of a slice serve
        the updated vectors bit-equally."""
        _, groups = cluster
        ids = service.known_hosts()

        replicator = ShardReplicator(groups, timeout=5.0)
        assert replicator.sink_name.startswith("replicator[")
        assert "|" in replicator.sink_name  # replicated topology visible
        service.add_update_sink(replicator)
        try:
            rng = np.random.default_rng(7)
            touched = ids[:10]
            outgoing = rng.random((10, DIMENSION)) + 0.5
            incoming = rng.random((10, DIMENSION)) + 0.5
            service.apply_vector_updates(touched, outgoing, incoming)
        finally:
            service.remove_update_sink(replicator)
            replicator.close()
        assert service.health().update_sink_failures == 0

        async def compare():
            members = []
            for slice_index, addresses in enumerate(groups):
                slice_ids = [
                    i for i in touched
                    if shard_of(i, N_SLICES) == slice_index
                ]
                if not slice_ids:
                    continue
                replies = []
                for address in addresses:
                    client = RemoteShardClient(*address, timeout=5.0)
                    try:
                        response = await client.call(
                            "gather", {"ids": slice_ids, "which": "both"}
                        )
                        replies.append(
                            (
                                np.array(response.array("outgoing")),
                                np.array(response.array("incoming")),
                            )
                        )
                    finally:
                        await client.close()
                members.append((slice_ids, replies))
            return members

        for slice_ids, replies in run(compare()):
            first_out, first_in = replies[0]
            for other_out, other_in in replies[1:]:
                assert np.array_equal(first_out, other_out)
                assert np.array_equal(first_in, other_in)
            # And they carry the refreshed values, not the seed.
            expected_out, expected_in = service.store.gather(slice_ids)
            np.testing.assert_allclose(first_out, expected_out)
            np.testing.assert_allclose(first_in, expected_in)

    def test_restarted_stale_replica_catches_up_before_serving(
        self, service, cluster, snapshot_path
    ):
        """ISSUE 9 acceptance: kill a replica, write past it, restart
        it from the stale snapshot — no read ever sees the stale
        vectors, and the restarted store converges to a bit-equal
        digest with its survivor sibling."""
        processes, groups = cluster
        victim = processes[0][0]
        victim_address = victim.address
        survivor_address = processes[0][1].address
        slice_ids = [
            i for i in service.known_hosts() if shard_of(i, N_SLICES) == 0
        ]
        touched = slice_ids[:6]
        rng = np.random.default_rng(11)
        # Values far from the seed range: a stale read is unambiguous.
        new_out = rng.random((len(touched), DIMENSION)) + 10.0
        new_in = rng.random((len(touched), DIMENSION)) + 10.0
        poke_out = rng.random((2, DIMENSION)) + 10.0
        poke_in = rng.random((2, DIMENSION)) + 10.0
        # The in-process oracle applies the same writes up front, so
        # every correct cluster answer matches it exactly.
        service.apply_vector_updates(touched, new_out, new_in)
        service.apply_vector_updates(touched[:2], poke_out, poke_in)

        async def digest_of(address):
            client = RemoteShardClient(*address, timeout=5.0)
            try:
                response = await client.call("digest")
                return response.fields["digest"]
            finally:
                await client.close()

        replacements = []

        async def scenario():
            router = await connect_replica_router(
                groups, timeout=2.0, retries=1, reprobe_seconds=30.0
            )
            try:
                victim.kill()
                # Writes the victim misses entirely.
                await router.put_many(touched, new_out, new_in)
                # Restart at the ORIGINAL address from the stale
                # pre-write snapshot: the classic resurrection trap.
                replacement = spawn_shard_process(
                    0,
                    N_SLICES,
                    snapshot_path=snapshot_path,
                    port=victim_address[1],
                )
                replacements.append(replacement)
                # Another write: the restarted replica acknowledges it,
                # which under pre-journal rules made it read-eligible
                # while still missing the dark-window batch.
                await router.put_many(touched[:2], poke_out, poke_in)
                # Read burst while the repair races in the background:
                # every answer must reflect the refreshed vectors (a
                # stale replica serving the snapshot values would be
                # off by an order of magnitude) and never error.
                for _ in range(30):
                    for host in touched[2:]:
                        value = await router.point(touched[0], host)
                        assert value == pytest.approx(
                            service.engine.point(touched[0], host)
                        )
                # Convergence: both replicas reach a bit-equal digest.
                deadline = asyncio.get_running_loop().time() + 20.0
                while True:
                    survivor = await digest_of(survivor_address)
                    restarted = await digest_of(victim_address)
                    if survivor == restarted:
                        break
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError(
                            f"no convergence: {survivor} vs {restarted}"
                        )
                    await asyncio.sleep(0.1)
                return await router.health()
            finally:
                await router.close()

        try:
            health = run(scenario())
        finally:
            # Stopped outside the event loop so the graceful shutdown
            # RPC (asyncio.run inside stop()) can actually run.
            for process in replacements:
                process.stop()
        shard0 = health.shards[0]
        assert shard0.reachable
        states = {r.address: r for r in shard0.replicas}
        restarted = states[f"{victim_address[0]}:{victim_address[1]}"]
        # Digest-equal means repair finished; the group marks the
        # replica active the moment its own digest check agrees.
        assert restarted.state in {"active", "catching_up"}
        if restarted.state == "active":
            assert restarted.repairs >= 1

    def test_health_to_dict_carries_replica_detail(self, cluster):
        _, groups = cluster

        async def scenario():
            router = await connect_replica_router(groups, timeout=2.0)
            try:
                return await router.health()
            finally:
                await router.close()

        health = run(scenario())
        payload = health.to_dict()
        shard = payload["shards"][0]
        assert len(shard["replicas"]) == REPLICAS
        for replica in shard["replicas"]:
            assert replica["state"] == "active"
            assert ":" in replica["address"]
        assert shard["failovers"] == 0


class TestServeRepairCli:
    """Exit-code contract of ``serve repair``: 0 only when every
    replica answered a digest and all digests agree — anything else
    (a dark replica, diverged stores) must fail the invocation so
    cron jobs and CI gates can alarm on the status code alone."""

    @staticmethod
    def _addresses(members):
        return [f"{host}:{port}" for host, port in members]

    def test_converged_group_exits_zero(self, snapshot_path, capsys):
        from repro.cli import main

        members = [
            spawn_shard_process(0, 1, snapshot_path=snapshot_path)
            for _ in range(REPLICAS)
        ]
        try:
            addresses = self._addresses([m.address for m in members])
            code = main(["serve", "repair", *addresses, "--check"])
        finally:
            for member in members:
                member.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "check: converged" in out

    def test_unreachable_replica_exits_nonzero(self, snapshot_path, capsys):
        from repro.cli import main

        live = spawn_shard_process(0, 1, snapshot_path=snapshot_path)
        try:
            address = self._addresses([live.address])[0]
            code = main(
                [
                    "serve",
                    "repair",
                    address,
                    "127.0.0.1:1",
                    "--timeout",
                    "0.5",
                    "--check",
                ]
            )
        finally:
            live.stop()
        out = capsys.readouterr().out
        assert code != 0
        assert "digest=unavailable" in out

    def test_diverged_digests_exit_nonzero(self, snapshot_path, capsys):
        from repro.cli import main

        members = [
            spawn_shard_process(0, 1, snapshot_path=snapshot_path)
            for _ in range(REPLICAS)
        ]
        try:
            # Force divergence: write extra rows to ONE replica only,
            # behind the replication tier's back.
            rng = np.random.default_rng(3)
            rows = rng.random((2, DIMENSION)) + 0.5

            async def skew():
                host, port = members[0].address
                client = RemoteShardClient(host, port, timeout=5.0)
                try:
                    await client.call(
                        "put_many",
                        {"ids": ["skew0", "skew1"]},
                        {"outgoing": rows, "incoming": rows},
                    )
                finally:
                    await client.close()

            run(skew())
            addresses = self._addresses([m.address for m in members])
            code = main(["serve", "repair", *addresses, "--check"])
        finally:
            for member in members:
                member.stop()
        out = capsys.readouterr().out
        assert code != 0
        assert "check: diverged" in out
