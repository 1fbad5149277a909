"""Load generators shared by the serving benchmark gates.

Measurement code, not serving code: ``bench_frontend.py``,
``bench_transport.py`` and ``bench_observability.py`` import it, and no
module under ``src/`` does. Three harnesses:

* **coalescing** — :func:`measure_concurrent_throughput` drives the
  micro-batching :class:`~repro.serving.AsyncDistanceFrontend` with
  concurrent async clients; :func:`measure_per_query_throughput` serves
  the identical traffic as thread-per-client blocking queries (the
  baseline the frontend replaces);
* **batch policies** — :func:`measure_batching_policy` runs one batch
  policy against a steady or bursty synthetic load over
  :class:`SimulatedDispatchBackend`, whose only behaviour is a
  deterministic dispatch cost model;
* **pipelining** — :func:`measure_pipelined_speedup` spawns one shard
  process and compares one client awaiting each RPC in turn against
  the same client keeping ``depth`` RPCs in flight on its one socket.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.serving import (
    AsyncDistanceFrontend,
    DistanceService,
    MetricsRegistry,
    PredictionCache,
    RemoteShardClient,
    configure_tracing,
    spawn_shard_process,
)

# ---------------------------------------------------------------------- #
# coalescing: the two dispatch strategies under identical traffic
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConcurrencyReport:
    """Throughput of one dispatch strategy under concurrent load.

    Attributes:
        strategy: human-readable dispatch-strategy label.
        n_clients: concurrent clients generating traffic.
        total_queries: point queries answered.
        elapsed_seconds: wall-clock time for the whole run.
        mean_batch: average coalesced batch size (1.0 for per-query).
    """

    strategy: str
    n_clients: int
    total_queries: int
    elapsed_seconds: float
    mean_batch: float

    @property
    def queries_per_second(self) -> float:
        """Aggregate throughput."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_queries / self.elapsed_seconds

    def __str__(self) -> str:
        return (
            f"{self.strategy}: {self.queries_per_second:,.0f} qps "
            f"({self.total_queries} queries, {self.n_clients} clients, "
            f"mean batch {self.mean_batch:.0f})"
        )


def _client_workloads(
    n_hosts: int, n_clients: int, queries_per_client: int, seed: int
) -> list[list[tuple[int, int]]]:
    """Per-client random (source, destination) index streams."""
    workloads = []
    for client in range(n_clients):
        rng = np.random.default_rng(seed + client)
        sources = rng.integers(0, n_hosts, queries_per_client)
        destinations = rng.integers(0, n_hosts, queries_per_client)
        workloads.append(list(zip(sources.tolist(), destinations.tolist())))
    return workloads


def measure_concurrent_throughput(
    service: DistanceService,
    n_clients: int = 64,
    queries_per_client: int = 400,
    window: int = 8,
    max_batch: int = 4096,
    seed: int = 0,
    instrument: bool = False,
) -> ConcurrencyReport:
    """Drive the micro-batching frontend with concurrent async clients.

    Each client keeps ``window`` point queries in flight (a redirector
    resolving several candidate pairs at once); the frontend coalesces
    across all ``n_clients`` of them.

    ``instrument=True`` runs the identical workload with the telemetry
    plane live — tracing enabled and the service's and frontend's
    metrics bound to a fresh registry — so the observability overhead
    benchmark can gate instrumented-vs-plain on this exact path.
    """
    host_ids = service.known_hosts()
    workloads = _client_workloads(
        len(host_ids), n_clients, queries_per_client, seed
    )
    service.cache.clear()  # same cold start as the per-query baseline

    registry = None
    if instrument:
        registry = MetricsRegistry()
        service.bind_metrics(registry)
        configure_tracing(enabled=True, service="bench-frontend")

    async def run() -> tuple[float, float]:
        async with AsyncDistanceFrontend(service, max_batch=max_batch) as frontend:
            if registry is not None:
                frontend.bind_metrics(registry)

            async def client(pairs: list[tuple[int, int]]) -> None:
                submit = frontend.submit
                for i in range(0, len(pairs), window):
                    futures = [
                        submit(host_ids[s], host_ids[d])
                        for s, d in pairs[i : i + window]
                    ]
                    for future in futures:
                        await future

            started = time.perf_counter()
            await asyncio.gather(*(client(w) for w in workloads))
            elapsed = time.perf_counter() - started
            return elapsed, frontend.stats().mean_batch

    try:
        elapsed, mean_batch = asyncio.run(run())
    finally:
        if instrument:
            configure_tracing(enabled=False)
    return ConcurrencyReport(
        strategy="coalesced micro-batched dispatch",
        n_clients=n_clients,
        total_queries=n_clients * queries_per_client,
        elapsed_seconds=elapsed,
        mean_batch=mean_batch,
    )


def measure_per_query_throughput(
    service: DistanceService,
    n_clients: int = 64,
    queries_per_client: int = 400,
    seed: int = 0,
) -> ConcurrencyReport:
    """Per-query dispatch baseline: ``n_clients`` concurrent threads,
    each making individual blocking :meth:`DistanceService.query`
    calls — the thread-per-client server the frontend replaces."""
    host_ids = service.known_hosts()
    workloads = _client_workloads(
        len(host_ids), n_clients, queries_per_client, seed
    )
    service.cache.clear()

    def client(pairs: list[tuple[int, int]]) -> None:
        query = service.query
        for s, d in pairs:
            query(host_ids[s], host_ids[d])

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        list(pool.map(client, workloads))
    elapsed = time.perf_counter() - started
    return ConcurrencyReport(
        strategy="per-query dispatch",
        n_clients=n_clients,
        total_queries=n_clients * queries_per_client,
        elapsed_seconds=elapsed,
        mean_batch=1.0,
    )


# ---------------------------------------------------------------------- #
# batch-policy evaluation: synthetic dispatch costs, bursty/steady load
# ---------------------------------------------------------------------- #


class SimulatedDispatchBackend:
    """An async backend whose only behavior is its *cost model*.

    Every dispatch spends ``base_ms + per_item_us * n`` of event-loop
    time — the shape of a cross-shard RPC round (fixed protocol/syscall
    overhead plus linear payload cost). Results are zeros; the point is
    to make the batching tradeoff real and deterministic so batch
    policies can be compared: many small dispatches pay ``base_ms``
    over and over, one large dispatch pays it once but makes early
    arrivals wait.

    Attributes:
        dispatches: backend calls executed.
        items: total requests served across those calls.
    """

    def __init__(self, base_ms: float = 2.0, per_item_us: float = 4.0):
        if base_ms < 0 or per_item_us < 0:
            raise ValidationError("cost-model parameters must be >= 0")
        self.base = float(base_ms) / 1000.0
        self.per_item = float(per_item_us) / 1_000_000.0
        self.cache = PredictionCache()  # stays empty: no hit fast path
        self.write_epoch = 0
        self.dispatches = 0
        self.items = 0

    def cache_put_if_current(self, *args: object) -> bool:
        return False

    def cache_put_many_if_current(self, *args: object) -> int:
        return 0

    async def _spend(self, items: int) -> None:
        self.dispatches += 1
        self.items += items
        await asyncio.sleep(self.base + self.per_item * items)

    async def point(self, source_id: object, destination_id: object) -> float:
        await self._spend(1)
        return 0.0

    async def pairs(self, source_ids, destination_ids) -> np.ndarray:
        await self._spend(len(source_ids))
        return np.zeros(len(source_ids))

    async def one_to_many(self, source_id: object, destination_ids) -> np.ndarray:
        await self._spend(len(destination_ids))
        return np.zeros(len(destination_ids))

    async def k_nearest(self, source_id: object, k: int, candidate_ids=None):
        await self._spend(int(k))
        return []


@dataclass(frozen=True)
class PolicyReport:
    """Outcome of one batch policy under one synthetic load.

    Attributes:
        policy: human-readable policy label.
        load: "steady" or "bursty".
        total_queries: point queries completed.
        elapsed_seconds: wall-clock time for the whole run.
        dispatches: backend calls the policy's batching produced.
        mean_batch: average coalesced batch size.
        batch_wait_ms: the policy's final window (None for no policy).
    """

    policy: str
    load: str
    total_queries: int
    elapsed_seconds: float
    dispatches: int
    mean_batch: float
    batch_wait_ms: float | None

    @property
    def queries_per_second(self) -> float:
        """Aggregate throughput."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_queries / self.elapsed_seconds

    def __str__(self) -> str:
        wait = (
            f" wait={self.batch_wait_ms:.2f}ms"
            if self.batch_wait_ms is not None
            else ""
        )
        return (
            f"{self.policy} [{self.load}]: {self.elapsed_seconds * 1000:.0f} ms "
            f"for {self.total_queries} queries in {self.dispatches} dispatches "
            f"(mean batch {self.mean_batch:.0f}{wait})"
        )


async def _drive_steady(
    frontend: AsyncDistanceFrontend, n_clients: int, rounds: int
) -> int:
    """Closed-loop lockstep traffic: every client keeps exactly one
    query in flight — the regime where any extra window is pure
    latency tax."""

    async def client(index: int) -> None:
        for round_number in range(rounds):
            await frontend.query(("s", index), ("d", round_number))

    await asyncio.gather(*(client(i) for i in range(n_clients)))
    return n_clients * rounds


async def _drive_bursty(
    frontend: AsyncDistanceFrontend,
    n_clients: int,
    rounds: int,
    window: int,
    spread_ms: float,
) -> int:
    """Closed-loop bursts with intra-burst arrival spread: each round,
    clients submit ``window`` queries staggered across ``spread_ms`` —
    the regime where a hold-open window collects the burst instead of
    shredding it into base-cost-dominated fragments."""
    spread = spread_ms / 1000.0

    async def client(index: int) -> None:
        offset = spread * index / max(n_clients - 1, 1)
        for round_number in range(rounds):
            await asyncio.sleep(offset)
            futures = [
                frontend.submit(("s", index, w), ("d", round_number))
                for w in range(window)
            ]
            for future in futures:
                await future

    await asyncio.gather(*(client(i) for i in range(n_clients)))
    return n_clients * rounds * window


def measure_batching_policy(
    policy,
    load: str = "steady",
    label: str | None = None,
    n_clients: int = 24,
    rounds: int = 20,
    window: int = 4,
    spread_ms: float = 6.0,
    base_ms: float = 2.0,
    per_item_us: float = 4.0,
) -> PolicyReport:
    """Run one batch policy against one synthetic load shape.

    Args:
        policy: a batch policy instance, or None for bare
            drain-then-dispatch.
        load: "steady" (lockstep closed loop) or "bursty" (staggered
            burst rounds).
        label: report label (defaults to the policy class name).
        n_clients / rounds / window / spread_ms: load-shape knobs.
        base_ms / per_item_us: the simulated dispatch cost model.
    """
    if load not in ("steady", "bursty"):
        raise ValidationError(f"load must be 'steady' or 'bursty', got {load!r}")
    backend = SimulatedDispatchBackend(base_ms=base_ms, per_item_us=per_item_us)
    if label is None:
        label = type(policy).__name__ if policy is not None else "no-policy"

    async def run():
        async with AsyncDistanceFrontend(backend, policy=policy) as frontend:
            started = time.perf_counter()
            if load == "steady":
                served = await _drive_steady(frontend, n_clients, rounds)
            else:
                served = await _drive_bursty(
                    frontend, n_clients, rounds, window, spread_ms
                )
            elapsed = time.perf_counter() - started
            return served, elapsed, frontend.stats()

    served, elapsed, stats = asyncio.run(run())
    return PolicyReport(
        policy=label,
        load=load,
        total_queries=served,
        elapsed_seconds=elapsed,
        dispatches=backend.dispatches,
        mean_batch=stats.mean_batch,
        batch_wait_ms=stats.batch_wait_ms,
    )


# ---------------------------------------------------------------------- #
# pipelining: one socket, one RPC at a time vs many in flight
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of one pipelining comparison run.

    Attributes:
        requests: RPCs issued per strategy.
        depth: pipeline depth of the pipelined run.
        batch: ids gathered per RPC (payload size knob).
        work_delay: per-request service time configured on the shard.
        sequential_seconds: wall time with each RPC awaited in turn.
        pipelined_seconds: wall time with ``depth`` RPCs in flight.
    """

    requests: int
    depth: int
    batch: int
    work_delay: float
    sequential_seconds: float
    pipelined_seconds: float

    @property
    def speedup(self) -> float:
        """Baseline time over pipelined time."""
        if self.pipelined_seconds <= 0:
            return 0.0
        return self.sequential_seconds / self.pipelined_seconds

    def __str__(self) -> str:
        return (
            f"{self.requests} gathers of {self.batch} ids, depth "
            f"{self.depth}: one-in-flight "
            f"{self.sequential_seconds * 1000:.0f} ms, pipelined "
            f"{self.pipelined_seconds * 1000:.0f} ms -> "
            f"{self.speedup:.1f}x"
        )


async def _measure_once(
    address: tuple[str, int],
    ids: list,
    requests: int,
    depth: int,
    batch: int,
    registry=None,
) -> tuple[float, float]:
    """(sequential_seconds, pipelined_seconds) over identical plans.

    One client on one socket runs both: first awaiting each gather
    before issuing the next, then keeping ``depth`` of them in flight.
    """
    picks = [
        [ids[(r * 7 + i) % len(ids)] for i in range(batch)]
        for r in range(requests)
    ]
    client = RemoteShardClient(
        *address, pool_size=1, max_in_flight=depth, timeout=30.0
    )
    if registry is not None:
        client.bind_metrics(registry)
    try:
        await client.call("ping")  # dial before timing

        started = time.perf_counter()
        for plan in picks:
            await client.call("gather", {"ids": plan, "which": "out"})
        sequential = time.perf_counter() - started

        window = asyncio.Semaphore(depth)

        async def one(plan: list) -> None:
            async with window:
                await client.call("gather", {"ids": plan, "which": "out"})

        started = time.perf_counter()
        await asyncio.gather(*(one(plan) for plan in picks))
        pipelined = time.perf_counter() - started

        if client.open_connections != 1:
            raise ValidationError(
                "pipelined measurement leaked onto "
                f"{client.open_connections} sockets"
            )
        return sequential, pipelined
    finally:
        await client.close()


def measure_pipelined_speedup(
    depth: int = 16,
    requests: int = 96,
    batch: int = 32,
    work_delay: float = 0.002,
    dimension: int = 10,
    n_hosts: int = 256,
    attempts: int = 3,
    instrument: bool = False,
) -> PipelineReport:
    """Spawn one shard process and compare the two disciplines.

    The shard adds ``work_delay`` of service time to every request,
    modeling network and gather latency deterministically. Best of
    ``attempts`` absorbs scheduler noise on loaded CI runners; the gap
    is architectural (``requests / depth`` versus ``requests``
    sequential service times), so one clean run suffices.

    ``instrument=True`` runs the identical measurement with the full
    telemetry plane live on both sides — client RPC histograms bound
    to a fresh registry, tracing enabled in this process, and the
    shard process running its own registry and tracer — so
    ``bench_observability.py`` can gate the overhead of observability
    against the plain run.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    rng = np.random.default_rng(3)
    ids = [f"h{i}" for i in range(n_hosts)]
    outgoing = rng.random((n_hosts, dimension)) + 0.5
    incoming = rng.random((n_hosts, dimension)) + 0.5

    process = spawn_shard_process(
        0, 1, dimension=dimension, work_delay=work_delay, telemetry=instrument
    )
    registry = None
    if instrument:
        registry = MetricsRegistry()
        configure_tracing(enabled=True, service="bench-client")

    async def seed() -> None:
        client = RemoteShardClient(*process.address, timeout=30.0)
        try:
            await client.call(
                "put_many",
                {"ids": ids},
                {"outgoing": outgoing, "incoming": incoming},
            )
        finally:
            await client.close()

    try:
        asyncio.run(seed())
        best: tuple[float, float] | None = None
        for _ in range(attempts):
            sequential, pipelined = asyncio.run(
                _measure_once(
                    process.address, ids, requests, depth, batch, registry
                )
            )
            if best is None or sequential / pipelined > best[0] / best[1]:
                best = (sequential, pipelined)
        return PipelineReport(
            requests=requests,
            depth=depth,
            batch=batch,
            work_delay=work_delay,
            sequential_seconds=best[0],
            pipelined_seconds=best[1],
        )
    finally:
        if instrument:
            configure_tracing(enabled=False)
        process.stop()
