#!/usr/bin/env python
"""Failover chaos check: SIGKILL one replica per slice under live load.

The CI guard for the replication tier's outermost promise: a
2-slice x 2-replica cluster must keep answering queries — zero
caller-visible errors, bounded p99 — while one replica of *every*
slice is SIGKILLed mid-load, and a standby re-seeded from the service
snapshot must serve bit-equal answers. A final convergence phase then
proves the resurrection gate: new vectors are written while the
victims are dark, each victim is restarted **at its original address
from the stale pre-write snapshot**, and the cluster must (a) never
serve the stale vectors to any read while anti-entropy repair races in
the background and (b) drive every restarted replica to a store digest
bit-equal with its survivor sibling. Runs in-repo with no external
dependencies::

    PYTHONPATH=src python tools/smoke_failover.py

``--bench-out PATH`` additionally writes the measured failover
promotion time, degraded-mode query latency and the restart-to-digest
convergence time (``replica_repair_seconds``) as a slim benchmark
JSON (the ``tools/bench_compare.py`` baseline schema), so the CI
perf-trajectory artifact accumulates failover entries run over run.

Exit code 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

N_SLICES = 2
REPLICAS = 2
N_HOSTS = 48
DIMENSION = 6
WORKERS = 4
PAIR_BATCH = 8
WARMUP_SECONDS = 1.0
DEGRADED_SECONDS = 3.0
#: The promotion budget from the roadmap: after a SIGKILL, no query —
#: including the in-flight ones that ride the failover — may take
#: longer than this.
DEFAULT_P99_BUDGET = 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write failover timings as slim benchmark JSON",
    )
    parser.add_argument(
        "--p99-budget",
        type=float,
        default=DEFAULT_P99_BUDGET,
        help=f"seconds allowed per query, failover included "
        f"(default: {DEFAULT_P99_BUDGET})",
    )
    arguments = parser.parse_args(argv)

    from repro.serving import ServiceSnapshot, save_snapshot, shard_of
    from repro.serving.transport import (
        RemoteShardClient,
        connect_replica_router,
        spawn_shard_process,
    )

    rng = np.random.default_rng(11)
    ids = [f"chaos-{i}" for i in range(N_HOSTS)]
    outgoing = rng.random((N_HOSTS, DIMENSION)) + 0.5
    incoming = rng.random((N_HOSTS, DIMENSION)) + 0.5

    failures: list[str] = []
    latencies: list[tuple[float, float]] = []  # (completed_at, seconds)
    errors: list[str] = []
    kill_at: list[float] = []  # single element once the chaos fires

    with tempfile.TemporaryDirectory() as workdir:
        snapshot_path = str(
            save_snapshot(
                ServiceSnapshot(
                    ids=ids,
                    outgoing=outgoing,
                    incoming=incoming,
                    landmark_ids=[],
                    n_shards=N_SLICES,
                ),
                Path(workdir) / "chaos-seed.npz",
            )
        )

        replicas = [
            [
                spawn_shard_process(
                    slice_index, N_SLICES, snapshot_path=snapshot_path
                )
                for _ in range(REPLICAS)
            ]
            for slice_index in range(N_SLICES)
        ]
        groups = [
            [process.address for process in members] for members in replicas
        ]
        # One victim per slice, staggered across member slots so both
        # the preferred and the standby positions get killed.
        victims = [
            replicas[slice_index][slice_index % REPLICAS]
            for slice_index in range(N_SLICES)
        ]
        survivors = [
            replicas[slice_index][(slice_index + 1) % REPLICAS]
            for slice_index in range(N_SLICES)
        ]
        replacements = []
        bench: dict[str, float] = {}

        async def worker(router, worker_index: int, stop: asyncio.Event):
            step = worker_index
            while not stop.is_set():
                sources = [ids[(step + j) % N_HOSTS] for j in range(PAIR_BATCH)]
                dests = [
                    ids[(step + j + 7) % N_HOSTS] for j in range(PAIR_BATCH)
                ]
                started = time.perf_counter()
                try:
                    values = await router.pairs(sources, dests)
                    await router.point(sources[0], dests[-1])
                except Exception as error:  # noqa: BLE001 - any error fails
                    errors.append(f"{type(error).__name__}: {error}")
                    return
                completed = time.perf_counter()
                latencies.append((completed, completed - started))
                if not np.all(np.isfinite(values)):
                    errors.append(f"non-finite distances at step {step}")
                    return
                step += WORKERS

        async def chaos():
            await asyncio.sleep(WARMUP_SECONDS)
            kill_at.append(time.perf_counter())
            for victim in victims:
                victim.process.kill()  # raw SIGKILL; reaped in cleanup
            await asyncio.sleep(DEGRADED_SECONDS)

        async def drive():
            router = await connect_replica_router(
                groups, timeout=2.0, retries=0, reprobe_seconds=0.5
            )
            try:
                stop = asyncio.Event()
                tasks = [
                    asyncio.create_task(worker(router, index, stop))
                    for index in range(WORKERS)
                ]
                await chaos()
                stop.set()
                await asyncio.gather(*tasks)
                health = await router.health()
                if health.unreachable_shards:
                    failures.append(
                        f"{health.unreachable_shards} slices unreachable "
                        "after losing one replica each"
                    )
                for shard in health.shards:
                    if shard.dark_replicas != 1:
                        failures.append(
                            f"slice {shard.shard_index}: expected exactly 1 "
                            f"dark replica, saw {shard.dark_replicas} "
                            f"({shard})"
                        )
            finally:
                await router.close()

        async def reseed_check():
            """A standby re-seeded from the snapshot must be bit-equal."""
            for slice_index in range(N_SLICES):
                replacement = spawn_shard_process(
                    slice_index, N_SLICES, snapshot_path=snapshot_path
                )
                replacements.append(replacement)
                survivor = survivors[slice_index]
                slice_ids = [
                    i for i in ids if shard_of(i, N_SLICES) == slice_index
                ]
                for label, target in (
                    ("survivor", survivor),
                    ("reseeded", replacement),
                ):
                    client = RemoteShardClient(*target.address, timeout=5.0)
                    try:
                        response = await client.call(
                            "gather", {"out": slice_ids, "in": slice_ids}
                        )
                        yield_out = np.array(response.array("outgoing"))
                        yield_in = np.array(response.array("incoming"))
                    finally:
                        await client.close()
                    if label == "survivor":
                        expect_out, expect_in = yield_out, yield_in
                    elif not (
                        np.array_equal(expect_out, yield_out)
                        and np.array_equal(expect_in, yield_in)
                    ):
                        failures.append(
                            f"slice {slice_index}: re-seeded standby is "
                            "not bit-equal to the survivor"
                        )

        async def digest_of(address) -> str:
            client = RemoteShardClient(*address, timeout=5.0)
            try:
                response = await client.call("digest")
                return response.fields["digest"]
            finally:
                await client.close()

        async def convergence_check():
            """The resurrection gate: write past the dark victims,
            restart them STALE at their original addresses, and demand
            (a) no read ever serves the stale vectors and (b) every
            restarted replica converges to its survivor's digest."""
            router = await connect_replica_router(
                groups,
                timeout=2.0,
                retries=1,
                reprobe_seconds=30.0,
                anti_entropy_seconds=0.25,
            )
            try:
                touched = ids[:8]
                # Values far outside the seed range: a stale read is
                # unambiguous, not a tolerance question.
                fresh_out = rng.random((len(touched), DIMENSION)) + 10.0
                fresh_in = rng.random((len(touched), DIMENSION)) + 10.0
                # The survivors take this write; the victims (dark
                # since the chaos phase) miss it entirely.
                await router.put_many(touched, fresh_out, fresh_in)
                outgoing[: len(touched)] = fresh_out
                incoming[: len(touched)] = fresh_in
                restarted_at = time.perf_counter()
                restarted = []
                for slice_index, victim in enumerate(victims):
                    replacement = spawn_shard_process(
                        slice_index,
                        N_SLICES,
                        snapshot_path=snapshot_path,
                        port=victim.address[1],
                    )
                    replacements.append(replacement)
                    restarted.append(replacement)
                # A write the restarted replicas DO acknowledge: their
                # journal seq lag becomes visible and the group holds
                # them in catching_up instead of trusting the ack.
                poke_out = rng.random((2, DIMENSION)) + 10.0
                poke_in = rng.random((2, DIMENSION)) + 10.0
                await router.put_many(touched[:2], poke_out, poke_in)
                outgoing[:2] = poke_out
                incoming[:2] = poke_in
                # Read burst while repair races in the background: the
                # stale snapshot vectors are off by an order of
                # magnitude, so any stale answer fails loudly.
                index_of = {host: i for i, host in enumerate(ids)}
                for burst in range(20):
                    sources = [touched[burst % len(touched)]] * PAIR_BATCH
                    dests = [
                        ids[(burst + j) % N_HOSTS] for j in range(PAIR_BATCH)
                    ]
                    values = await router.pairs(sources, dests)
                    expected = [
                        float(
                            outgoing[index_of[s]] @ incoming[index_of[d]]
                        )
                        for s, d in zip(sources, dests)
                    ]
                    if not np.allclose(values, expected):
                        failures.append(
                            f"stale read during catch-up (burst {burst}): "
                            "a restarted replica served pre-write vectors"
                        )
                        return
                # Convergence: every restarted replica must reach a
                # digest bit-equal with its survivor sibling.
                pending = set(range(N_SLICES))
                deadline = time.perf_counter() + 30.0
                while pending:
                    for slice_index in sorted(pending):
                        survivor_digest = await digest_of(
                            survivors[slice_index].address
                        )
                        restarted_digest = await digest_of(
                            restarted[slice_index].address
                        )
                        if survivor_digest == restarted_digest:
                            pending.discard(slice_index)
                    if not pending:
                        break
                    if time.perf_counter() > deadline:
                        failures.append(
                            f"slices {sorted(pending)} never converged "
                            "to a bit-equal digest after restart"
                        )
                        return
                    await asyncio.sleep(0.1)
                bench["replica_repair_seconds"] = (
                    time.perf_counter() - restarted_at
                )
                print(
                    "convergence: stale restarts caught up in "
                    f"{bench['replica_repair_seconds'] * 1000:.1f} ms "
                    "with zero stale reads"
                )
            finally:
                await router.close()

        try:
            asyncio.run(drive())
            failures.extend(errors[:5])
            if not latencies:
                failures.append("no queries completed")
            else:
                seconds = np.array([latency for _, latency in latencies])
                p99 = float(np.percentile(seconds, 99))
                if p99 > arguments.p99_budget:
                    failures.append(
                        f"p99 {p99:.3f}s exceeds budget "
                        f"{arguments.p99_budget:.3f}s"
                    )
                degraded = np.array(
                    [
                        latency
                        for completed, latency in latencies
                        if kill_at and completed >= kill_at[0]
                    ]
                )
                if degraded.size == 0:
                    failures.append("no queries completed after the kill")
                    promotion = float("nan")
                    degraded_mean = float("nan")
                else:
                    # The slowest post-kill query rode the failover: the
                    # time until a sibling answered IS the promotion lag.
                    promotion = float(degraded.max())
                    degraded_mean = float(degraded.mean())
                    if promotion > arguments.p99_budget:
                        failures.append(
                            f"failover promotion took {promotion:.3f}s "
                            f"(budget {arguments.p99_budget:.3f}s)"
                        )
                print(
                    f"load: {len(latencies)} queries, p99 {p99 * 1000:.1f} ms, "
                    f"errors {len(errors)}; post-kill: {degraded.size} "
                    f"queries, promotion {promotion * 1000:.1f} ms, "
                    f"mean {degraded_mean * 1000:.1f} ms"
                )
                if degraded.size:
                    bench["failover_promotion_seconds"] = promotion
                    bench["degraded_mode_query_seconds"] = degraded_mean
            if not failures:
                asyncio.run(reseed_check())
            if not failures:
                asyncio.run(convergence_check())
            if arguments.bench_out is not None and bench:
                arguments.bench_out.write_text(
                    json.dumps({"benchmarks": bench}, indent=2) + "\n",
                    encoding="utf-8",
                )
                print(f"wrote failover timings to {arguments.bench_out}")
        finally:
            for members in replicas:
                for process in members:
                    process.stop()
            for process in replacements:
                process.stop()

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"failover smoke ok: {N_SLICES}x{REPLICAS} cluster survived "
            "losing one replica per slice with zero query errors, and "
            "stale restarts converged digest-equal before serving reads"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
