"""Load generators and references shared by the serving benchmark gates.

Measurement code, not serving code: ``bench_serving.py``,
``bench_frontend.py``, ``bench_transport.py`` and
``bench_observability.py`` import it, and no module under ``src/``
does. Two harnesses and one reference:

* **coalescing** — :func:`measure_concurrent_throughput` drives the
  micro-batching :class:`~repro.serving.AsyncDistanceFrontend` with
  concurrent async clients; :func:`measure_per_query_throughput` serves
  the identical traffic as thread-per-client blocking queries (the
  baseline the frontend replaces);
* **pipelining** — :func:`measure_pipelined_speedup` spawns one shard
  process and compares one client awaiting each RPC in turn against
  the same client keeping ``depth`` RPCs in flight on its one socket;
* **id-list k-NN** — :func:`id_list_nearest` is the gather-based full
  scan that :meth:`~repro.serving.VectorStore.nearest` replaces: the
  oracle of ``tests/serving/test_store.py`` and the baseline of the
  full-scan gate in ``bench_serving.py``.
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
    RemoteShardClient,
    configure_tracing,
    spawn_shard_process,
)
from repro.serving.store import top_k_ascending

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
            await client.call("gather", {"out": plan})
        sequential = time.perf_counter() - started

        window = asyncio.Semaphore(depth)

        async def one(plan: list) -> None:
            async with window:
                await client.call("gather", {"out": plan})

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


# ---------------------------------------------------------------------- #
# id-list k-NN: the reference for the store's in-place full scan
# ---------------------------------------------------------------------- #


def id_list_nearest(store, source_out, k, exclude=None):
    """Full-scan k-NN over an id list: ``ids()``, drop ``exclude``,
    ``gather`` the survivors' rows, one product, ``top_k_ascending``.

    Returns the ``(ids, distances, scanned)`` triple of
    :meth:`~repro.serving.VectorStore.nearest`. Ties rank in ``ids()``
    order (insertion order), not store row order.
    """
    candidates = [host for host in store.ids() if host != exclude]
    if not candidates:
        return [], np.zeros(0), 0
    _, incoming = store.gather(candidates, copy=False)
    distances = incoming @ source_out
    top = top_k_ascending(distances, k)
    return [candidates[int(i)] for i in top], distances[top], len(candidates)
