"""The four workloads of the end-to-end benchmark.

Every workload is driven from one asyncio thread in the benchmark process
(no ``RefreshWorker`` thread, no ``ShardReplicator`` thread). The
serving workloads run real shard processes spawned with
``spawn_shard_process`` from a snapshot and reach them through
``connect_replica_router(..., pool_size=1)``, so each workload holds one
connection per shard process.

Inputs are a function of the seed only: the P2PSim evaluation subset,
its 20-landmark split, and a 16384-host serving population resampled
from the IDES/SVD fit with +-5% multiplicative jitter. Generating them
is never timed.

Each workload answers four calls: :meth:`Workload.setup` (timed
set-up, repeated), :meth:`Workload.warmup`, :meth:`Workload.run_round`
(one measured round) and :meth:`Workload.finish` (per-layer counters,
final correctness checks, teardown); serving workloads add
:meth:`Workload.traced_round`.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.errors import relative_errors
from repro.datasets import split_landmarks
from repro.evaluation import p2psim_eval_subset
from repro.ides import IDESSystem
from repro.serving import (
    AsyncDistanceFrontend,
    DistanceService,
    RefreshWorker,
    synthetic_drift_stream,
)
from repro.serving.observability import (
    build_trace_trees,
    configure_tracing,
    get_tracer,
    load_spans,
)
from repro.serving.snapshot import ServiceSnapshot, save_snapshot
from repro.serving.transport import (
    connect_replica_router,
    decode_frame,
    encode_frame,
    spawn_shard_process,
)

import attribution
from measure import cpu_seconds, peak_rss_mb, percentile_ms

DIMENSION = 10
N_LANDMARKS = 20
POPULATION = 16384
JITTER = 0.05
#: Relative tolerance of a served answer against the numpy reference:
#: the shard, router and numpy may sum a 10-term dot product in
#: different orders.
ANSWER_RTOL = 1e-9
#: The fitted model's Eq. 10 median error must equal the plain-numpy
#: reference of the same model to this absolute tolerance.
PINNED_TOLERANCE = 1e-9

POINT_CLIENTS = 32
SCAN_CLIENTS = 8
KNN_K = 10
FANOUT = 256
READ_RATE = 2000.0
WRITE_RATE = 4000.0
WRITE_CHUNK = 32
ZIPF_EXPONENT = 1.1
DRIFT = 0.2
#: Random draws are generated this many at a time per client.
BLOCK = 1024
#: fit_build's warm-up stops waiting for steady builds after this long.
WARMUP_CAP_SECONDS = 15.0
#: A settle-check solve faster than this counts as steady (see
#: :func:`settle_blas`).
SETTLED_SOLVE_SECONDS = 0.02


# ---------------------------------------------------------------------- #
# inputs: the model and the serving population
# ---------------------------------------------------------------------- #


def settle_blas(limit_seconds: float = 10.0) -> None:
    """Repeat a small multithreaded solve until it runs at steady speed.

    On a 2-vCPU VM, multithreaded OpenBLAS runs small solves ~100x
    slower during roughly the first second of a process (single-threaded
    BLAS does not). That is a once-per-process cost, not a cost of each
    model build, so no timed step starts before it has passed.
    """
    rng = np.random.default_rng(0)
    matrix, targets = rng.random((1123, N_LANDMARKS)), rng.random((1123, N_LANDMARKS))
    deadline = time.perf_counter() + limit_seconds
    fast_in_a_row = 0
    while fast_in_a_row < 2 and time.perf_counter() < deadline:
        started = time.perf_counter()
        np.linalg.lstsq(matrix, targets, rcond=None)
        # On a 2-vCPU VM steady calls take ~1 ms and slow ones ~250 ms.
        fast = time.perf_counter() - started < SETTLED_SOLVE_SECONDS
        fast_in_a_row = fast_in_a_row + 1 if fast else 0


def load_split(seed: int):
    """The P2PSim 1143-host subset and its 20-landmark split."""
    return split_landmarks(p2psim_eval_subset(seed=seed), N_LANDMARKS, seed=seed)


def build_model(split, method: str):
    """One IDES build (``fit_landmarks`` + ``place_hosts``).

    Returns ``(system, fit_seconds, place_seconds)``.
    """
    system = IDESSystem(dimension=DIMENSION, method=method, seed=0)
    started = time.perf_counter()
    system.fit_landmarks(split.landmark_matrix)
    fitted = time.perf_counter()
    system.place_hosts(split.out_distances, split.in_distances)
    return system, fitted - started, time.perf_counter() - fitted


def rel_error_p50(system, split) -> float:
    """Median Eq. 10 error of a built model over ordinary-host pairs."""
    return float(
        np.median(relative_errors(split.ordinary_matrix, system.predict_matrix()))
    )


def reference_rel_error_p50(split) -> float:
    """The same median error for IDES/SVD computed with plain numpy.

    Host placement against SVD landmark factors reduces to
    ``D_out V S^-1 U^T D_in`` for the rank-``d`` SVD ``U S V^T`` of the
    landmark matrix, whatever share of ``S`` each factor absorbs.
    """
    u, s, vt = np.linalg.svd(split.landmark_matrix, full_matrices=False)
    left = split.out_distances @ (vt[:DIMENSION].T / s[:DIMENSION])
    predicted = left @ (u[:, :DIMENSION].T @ split.in_distances)
    return float(np.median(relative_errors(split.ordinary_matrix, predicted)))


def make_population(system, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(X, Y)`` for hosts ``0..POPULATION-1``: the landmarks first,
    then fitted hosts resampled with multiplicative jitter."""
    rng = np.random.default_rng([seed, 1])
    landmark_out, landmark_in = system.landmark_vectors()
    host_out, host_in = system.host_vectors()
    rows = rng.integers(0, host_out.shape[0], POPULATION - N_LANDMARKS)
    shape = (rows.size, DIMENSION)
    outgoing = host_out[rows] * (1.0 + rng.uniform(-JITTER, JITTER, shape))
    incoming = host_in[rows] * (1.0 + rng.uniform(-JITTER, JITTER, shape))
    return (
        np.ascontiguousarray(np.vstack([landmark_out, outgoing])),
        np.ascontiguousarray(np.vstack([landmark_in, incoming])),
    )


def _snapshot(outgoing: np.ndarray, incoming: np.ndarray) -> ServiceSnapshot:
    return ServiceSnapshot(
        ids=list(range(outgoing.shape[0])),
        outgoing=outgoing,
        incoming=incoming,
        landmark_ids=list(range(N_LANDMARKS)),
    )


# ---------------------------------------------------------------------- #
# measurement records
# ---------------------------------------------------------------------- #


@dataclass
class Round:
    """One measured round of one workload.

    Per-op samples live in ``array`` buffers rather than lists of
    objects: the garbage collector neither tracks nor traverses them,
    so the benchmark's own bookkeeping does not lengthen this process's
    collection pauses that the serving latencies include.
    """

    seconds: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    cpu_seconds: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))

    def metrics(self) -> dict[str, float]:
        return {
            "ops_per_s": self.ops / self.seconds if self.seconds else 0.0,
            "latency_p50_ms": percentile_ms(self.latencies, 50),
            "latency_p90_ms": percentile_ms(self.latencies, 90),
            "latency_p99_ms": percentile_ms(self.latencies, 99),
            "cpu_ms_per_kop": self.cpu_seconds * 1e6 / self.ops if self.ops else 0.0,
        }


class _Failures:
    """Counts failed operations and keeps the first error for the log."""

    def __init__(self) -> None:
        self.count = 0
        self.first: str | None = None

    def add(self, error: BaseException) -> None:
        self.count += 1
        if self.first is None:
            self.first = f"{type(error).__name__}: {error}"


def _close(values, expected) -> np.ndarray:
    return np.isclose(values, expected, rtol=ANSWER_RTOL, atol=ANSWER_RTOL)


# ---------------------------------------------------------------------- #
# a serving cluster: shard processes + replica router + frontend
# ---------------------------------------------------------------------- #


class Cluster:
    """Shard processes behind a replica router and a frontend."""

    def __init__(self, processes, router, frontend):
        self.processes = processes
        self.router = router
        self.frontend = frontend

    @classmethod
    async def start(
        cls,
        snapshot_path: Path,
        slices: int,
        replicas: int,
        populate_cache: bool = False,
        trace_export: Path | None = None,
    ) -> tuple["Cluster", dict[str, float]]:
        """Spawn, connect and start; returns the cluster and the
        ``spawn_s`` / ``connect_s`` timings."""
        started = time.perf_counter()
        processes = []
        try:
            for shard in range(slices):
                for _ in range(replicas):
                    processes.append(
                        spawn_shard_process(
                            shard,
                            slices,
                            snapshot_path=str(snapshot_path),
                            trace_export=(
                                None if trace_export is None else str(trace_export)
                            ),
                        )
                    )
            spawned = time.perf_counter()
            router = await connect_replica_router(
                [
                    [p.address for p in processes[s * replicas : (s + 1) * replicas]]
                    for s in range(slices)
                ],
                pool_size=1,
            )
        except BaseException:
            for process in processes:
                process.kill()
            raise
        frontend = AsyncDistanceFrontend(router, populate_cache=populate_cache)
        await frontend.start()
        timings = {
            "spawn_s": spawned - started,
            "connect_s": time.perf_counter() - spawned,
        }
        return cls(processes, router, frontend), timings

    @property
    def pids(self) -> list[int]:
        return [p.process.pid for p in self.processes]

    @property
    def members(self) -> list:
        """Every replica's own client, slice by slice."""
        return [client for group in self.router.clients for client in group.clients]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    async def member_fields(self, op: str) -> list[dict]:
        responses = await asyncio.gather(
            *(client.call(op) for client in self.members)
        )
        return [response.fields for response in responses]

    async def close(self) -> None:
        """Stop the frontend, shut every shard down and reap it."""
        await self.frontend.stop()
        try:
            await asyncio.gather(
                *(group.call("shutdown") for group in self.router.clients),
                return_exceptions=True,
            )
        finally:
            await self.router.close()
            for process in self.processes:
                process.process.join(timeout=5.0)
                process.kill()  # no-op once the child has exited


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


class Workload:
    """Base class: shared bookkeeping of setups, rounds and checks."""

    name = ""
    serving = True

    def __init__(self, seed: int, workdir: Path, budget_seconds: float):
        self.seed = int(seed)
        self.workdir = Path(workdir) / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.budget_seconds = budget_seconds
        self.setups: list[dict[str, float]] = []
        self.rounds: list[Round] = []
        self.checks: dict[str, bool] = {}
        self.layers: dict[str, float] = {}
        self.trace_report: dict[str, float] = {}
        self.failures = _Failures()
        self.split = None
        #: Peak resident memory of the processes doing the work, MiB.
        self.rss = 0.0
        #: Median Eq. 10 error of the (last) IDES/SVD model built.
        self.model_error = 0.0

    def check(self, name: str, passed: bool) -> None:
        """Record a correctness check (all runs of a check must pass)."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    def _prepare_inputs(self) -> None:
        if self.split is None:
            self.split = load_split(self.seed)
            self.reference_error = reference_rel_error_p50(self.split)

    async def setup(self, repeats: int) -> None:
        raise NotImplementedError

    async def warmup(self, seconds: float) -> None:
        raise NotImplementedError

    async def run_round(self, seconds: float) -> Round:
        raise NotImplementedError

    async def finish(self) -> None:
        """Collect end-of-run counters and checks; release resources."""

    async def traced_round(self, seconds: float) -> None:
        """One traced round on a fresh traced cluster (serving only)."""

    async def close(self) -> None:
        """Release every process still held (idempotent)."""


class ServingWorkload(Workload):
    """Shared set-up, counters and tracing of the three serving workloads."""

    slices = 2
    replicas = 1
    populate_cache = False

    def __init__(self, seed, workdir, budget_seconds):
        super().__init__(seed, workdir, budget_seconds)
        self.cluster: Cluster | None = None
        self.round_index = 0
        self.writes = 0
        self.counter_deltas: dict[str, float] = {}

    # -- set-up ---------------------------------------------------------

    async def setup(self, repeats: int) -> None:
        self._prepare_inputs()
        for _ in range(repeats):
            if self.cluster is not None:
                await self.cluster.close()
                self.cluster = None
            started = time.perf_counter()
            system, fit_landmarks_s, place_hosts_s = build_model(self.split, "svd")
            fitted = time.perf_counter()
            # The population is input generation: excluded from set-up.
            self.outgoing, self.incoming = make_population(system, self.seed)
            resumed = time.perf_counter()
            snapshot_path = save_snapshot(
                self._snapshot(), self.workdir / "snapshot.npz"
            )
            snapshotted = time.perf_counter()
            self.cluster, timings = await Cluster.start(
                snapshot_path,
                self.slices,
                self.replicas,
                populate_cache=self.populate_cache,
            )
            connected = time.perf_counter()
            first = await self.cluster.frontend.query(0, 1)
            answered = time.perf_counter()
            self.check(
                "first_answer",
                _close(first, self.outgoing[0] @ self.incoming[1]),
            )
            self.model_error = rel_error_p50(system, self.split)
            self.check(
                "rel_error_pinned",
                abs(self.model_error - self.reference_error) <= PINNED_TOLERANCE,
            )
            self.setups.append(
                {
                    "fit_s": fitted - started,
                    "snapshot_s": snapshotted - resumed,
                    "spawn_s": timings["spawn_s"],
                    "connect_s": connected - snapshotted - timings["spawn_s"],
                    "first_answer_s": answered - connected,
                    "setup_s": (fitted - started) + (answered - resumed),
                    "fit_landmarks_svd_s": fit_landmarks_s,
                    "place_hosts_svd_s": place_hosts_s,
                }
            )
        self._after_setup()

    def _snapshot(self) -> ServiceSnapshot:
        return _snapshot(self.outgoing, self.incoming)

    def _after_setup(self) -> None:
        """Hook for workload state built on the final population."""

    # -- rounds ---------------------------------------------------------

    async def warmup(self, seconds: float) -> None:
        await self._traffic(seconds)

    async def _measured_traffic(self, seconds: float) -> Round:
        """One round of traffic with this process's and the shards' CPU time."""
        cpu_before = cpu_seconds() + self.cluster.cpu_seconds()
        result = await self._traffic(seconds)
        result.cpu_seconds = cpu_seconds() + self.cluster.cpu_seconds() - cpu_before
        return result

    async def run_round(self, seconds: float) -> Round:
        before = await self._counters()
        result = await self._measured_traffic(seconds)
        after = await self._counters()
        for key, value in after.items():
            self.counter_deltas[key] = (
                self.counter_deltas.get(key, 0) + value - before[key]
            )
        await self._verify(result)
        self.rounds.append(result)
        return result

    async def _traffic(self, seconds: float) -> Round:
        raise NotImplementedError

    async def _verify(self, result: Round) -> None:
        raise NotImplementedError

    async def _counters(self) -> dict[str, float]:
        frontend = self.cluster.frontend.stats()
        cache = self.cluster.router.cache.stats()
        health = await self.cluster.member_fields("health")
        return {
            "submitted": frontend.submitted,
            "cache_hits": frontend.cache_hits,
            "batches": frontend.batches,
            "coalesced": frontend.coalesced,
            "invalidations": cache.invalidations,
            "shard_queries": sum(h["queries_served"] for h in health),
            "shard_pairs": sum(h["pairs_evaluated"] for h in health),
            "journal_seq": sum(h["journal_seq"] for h in health),
            "writes": self.writes,
        }

    # -- end of run -----------------------------------------------------

    async def finish(self) -> None:
        cluster = self.cluster
        health = await cluster.router.health()
        replicas = [r for shard in health.shards for r in shard.replicas]
        deltas = self.counter_deltas
        batch_mean = _ratio(deltas, "coalesced", "batches")
        self.layers.update(
            {
                "frontend.batch_mean": batch_mean,
                "frontend.cache_hit_share": _ratio(deltas, "cache_hits", "submitted"),
                "cache.invalidations_per_write": _ratio(
                    deltas, "invalidations", "writes"
                ),
                "engine.pairs_per_rpc": _ratio(deltas, "shard_pairs", "shard_queries"),
                "journal.entries_per_write": _ratio(deltas, "journal_seq", "writes"),
                "replica.failovers": float(sum(s.failovers for s in health.shards)),
                "replica.failures": float(sum(r.failures for r in replicas)),
                "replica.seq_lag_max": float(
                    max((r.seq_lag or 0 for r in replicas), default=0)
                ),
                "protocol.encode_decode_us": self._codec_us(batch_mean),
            }
        )
        self.rss = cluster.rss_mb()
        self.cluster = None
        await cluster.close()

    def _codec_us(self, batch_mean: float) -> float:
        """Encode + decode of one gather response of this workload's
        mean shape: rows per gather = coalesced requests per batch per
        slice (one row for single-request batches)."""
        rows = max(1, round(batch_mean / self.slices))
        payload = {"outgoing": np.random.default_rng(0).random((rows, DIMENSION))}
        started = time.perf_counter()
        repeats = 200
        for _ in range(repeats):
            decode_frame(encode_frame({"ok": True}, payload)).array("outgoing")
        return (time.perf_counter() - started) / repeats * 1e6

    async def close(self) -> None:
        if self.cluster is not None:
            cluster, self.cluster = self.cluster, None
            await cluster.close()

    # -- traced round ---------------------------------------------------

    async def traced_round(self, seconds: float) -> None:
        """Run one round with tracing on in this process and the shards.

        Its numbers never feed end-to-end metrics. The traced cluster is
        spawned fresh (shard tracing is fixed at process start) from
        the current population, warmed up untraced, then measured.
        """
        trace_path = self.workdir / "trace.jsonl"
        trace_path.unlink(missing_ok=True)
        snapshot_path = save_snapshot(
            self._snapshot(), self.workdir / "snapshot-traced.npz"
        )
        self.cluster, _ = await Cluster.start(
            snapshot_path,
            self.slices,
            self.replicas,
            populate_cache=self.populate_cache,
            trace_export=trace_path,
        )
        try:
            await self._traffic(min(0.5, seconds))
            tracer = configure_tracing(
                enabled=True, service="bench", max_spans=2_000_000
            )
            try:
                result = await self._measured_traffic(seconds)
            finally:
                configure_tracing(enabled=False)
            await self._verify(result)
            tracer.export_jsonl(trace_path)
        finally:
            cluster, self.cluster = self.cluster, None
            await cluster.close()
        report = attribution.attribute_ops(build_trace_trees(load_spans(trace_path)))
        layers = report["layers"]
        timer_mean = float(np.mean(self._traced_send_latencies(result)))
        # Extra CPU per op with tracing on, this process and shards together:
        # unlike throughput it also shows on the open-loop workload,
        # whose throughput is fixed by the offered load.
        untraced_cpu = float(
            np.median([r.metrics()["cpu_ms_per_kop"] for r in self.rounds])
        )
        traced_cpu = result.metrics()["cpu_ms_per_kop"]
        attributed = sum(layers.values())
        self.layers.update(
            {
                "frontend.queue_wait_us": layers["queue_wait"] * 1e6,
                "frontend.self_us": layers["frontend"] * 1e6,
                "router.self_us": layers["router"] * 1e6,
                "client.rpc_self_us": layers["client"] * 1e6,
                "server.self_us": layers["server"] * 1e6,
                "engine.self_us": layers["engine"] * 1e6,
                "trace.latency_mean_us": timer_mean * 1e6,
                "trace.overhead_share": traced_cpu / untraced_cpu - 1.0,
            }
        )
        timer_queue_wait = timer_mean - report["mean_served_s"]
        self.trace_report = {
            "ops": report["ops"],
            "charged_to_batch": report["charged"],
            "other_roots": report["other_roots"],
            "attributed_share": attributed / timer_mean,
            "queue_wait_timer_us": timer_queue_wait * 1e6,
            "traced_ops_per_s": result.metrics()["ops_per_s"],
        }
        self.check(
            "trace_layers_sum_to_latency",
            report["ops"] > 0
            and abs(attributed / timer_mean - 1.0) <= 0.05
            and min(layers.values()) >= 0.0,
        )
        if report["charged"] == 0:
            # Every op has its own span tree (no coalesced batches), so
            # the root's sweep-line self time must agree with the queue
            # wait a timer infers: latency minus the serving span.
            self.check(
                "trace_queue_wait_matches_timer",
                abs(layers["queue_wait"] - timer_queue_wait)
                <= 0.05 * layers["queue_wait"],
            )

    def _traced_send_latencies(self, result: Round) -> array:
        """Traced-round latencies measured from the moment each request
        was sent (the span covers exactly that interval)."""
        return result.latencies


def _ratio(deltas: dict, numerator: str, denominator: str) -> float:
    below = deltas.get(denominator, 0)
    return float(deltas.get(numerator, 0)) / below if below else 0.0


class PointClosed(ServingWorkload):
    """Closed loop of uniform point queries through frontend coalescing."""

    name = "point_closed"

    async def _traffic(self, seconds: float) -> Round:
        frontend = self.cluster.frontend
        tracer = get_tracer()
        stop_at = time.perf_counter() + seconds
        result = Round()
        self.round_index += 1
        latencies = result.latencies
        sources, destinations, values = array("q"), array("q"), array("d")

        async def client(index: int) -> None:
            rng = np.random.default_rng([self.seed, 2, self.round_index, index])
            while time.perf_counter() < stop_at:
                pairs = rng.integers(0, POPULATION, (BLOCK, 2)).tolist()
                for source, destination in pairs:
                    if time.perf_counter() >= stop_at:
                        break
                    result.attempted += 1
                    started = time.perf_counter()
                    with tracer.span("bench:point") as span:
                        future = frontend.submit(source, destination)
                        if future.done():
                            span.set_attribute(attribution.CACHE_HIT, True)
                        try:
                            value = await future
                        except Exception as error:  # noqa: BLE001 - counted
                            self.failures.add(error)
                            result.failed += 1
                            continue
                    latencies.append(time.perf_counter() - started)
                    sources.append(source)
                    destinations.append(destination)
                    values.append(value)

        started = time.perf_counter()
        await asyncio.gather(*(client(i) for i in range(POINT_CLIENTS)))
        result.seconds = time.perf_counter() - started
        result.ops = len(values)
        self._records = (sources, destinations, values)
        return result

    async def _verify(self, result: Round) -> None:
        sources, destinations, values = (np.asarray(c) for c in self._records)
        expected = np.einsum(
            "ij,ij->i", self.outgoing[sources], self.incoming[destinations]
        )
        result.wrong = int((~_close(values, expected)).sum())
        self.check("point_answers", result.wrong == 0)


class ScanClosed(ServingWorkload):
    """Closed loop of k-NN and 1:N scans: shard compute dominates."""

    name = "scan_closed"

    async def _traffic(self, seconds: float) -> Round:
        frontend = self.cluster.frontend
        tracer = get_tracer()
        stop_at = time.perf_counter() + seconds
        result = Round()
        self.round_index += 1
        records = []

        async def client(index: int) -> None:
            rng = np.random.default_rng([self.seed, 3, self.round_index, index])
            for step in itertools.count():
                if time.perf_counter() >= stop_at:
                    return
                source = int(rng.integers(0, POPULATION))
                result.attempted += 1
                started = time.perf_counter()
                try:
                    if step % 2 == 0:
                        with tracer.span("bench:k_nearest"):
                            answer = await frontend.k_nearest(source, KNN_K)
                        record = (source, None, answer)
                    else:
                        destinations = rng.integers(0, POPULATION, FANOUT).tolist()
                        with tracer.span("bench:one_to_many"):
                            answer = await frontend.query_one_to_many(
                                source, destinations
                            )
                        record = (source, destinations, answer)
                except Exception as error:  # noqa: BLE001 - counted
                    self.failures.add(error)
                    result.failed += 1
                    continue
                result.latencies.append(time.perf_counter() - started)
                records.append(record)

        started = time.perf_counter()
        await asyncio.gather(*(client(i) for i in range(SCAN_CLIENTS)))
        result.seconds = time.perf_counter() - started
        result.ops = len(records)
        self._records = records
        return result

    async def _verify(self, result: Round) -> None:
        wrong = 0
        for source, destinations, answer in self._records:
            distances = self.incoming @ self.outgoing[source]
            if destinations is None:
                distances[source] = np.inf  # the router excludes the source
                expected = np.sort(np.partition(distances, KNN_K)[:KNN_K])
                ids = [host for host, _ in answer]
                got = np.array([value for _, value in answer])
                ok = (
                    len(answer) == KNN_K
                    and _close(got, expected).all()
                    and _close(distances[ids], got).all()
                )
            else:
                ok = _close(np.asarray(answer), distances[destinations]).all()
            wrong += not ok
        result.wrong = wrong
        self.check("scan_answers", wrong == 0)


class RefreshOpen(ServingWorkload):
    """Open-loop Zipf point reads beside a refresh write stream."""

    name = "refresh_open"
    slices = 1
    replicas = 2
    populate_cache = True

    def __init__(self, seed, workdir, budget_seconds):
        super().__init__(seed, workdir, budget_seconds)
        #: The primary service the refresh stream writes into; built on
        #: the final population after set-up.
        self.service: DistanceService | None = None

    def _after_setup(self) -> None:
        self.service = DistanceService.from_vectors(
            list(range(POPULATION)),
            self.outgoing,
            self.incoming,
            landmark_ids=list(range(N_LANDMARKS)),
        )
        # Flushes are driven explicitly, one per chunk.
        self.worker = RefreshWorker(self.service, flush_every=2**62)
        self.captured: list[tuple] = []
        self.service.add_update_sink(
            lambda ids, out, inc: self.captured.append((ids, out, inc)),
            name="bench-capture",
        )
        draws = int(WRITE_RATE * self.budget_seconds * 0.75) + 10 * WRITE_CHUNK
        self.stream = synthetic_drift_stream(
            self.service, samples=draws, drift=DRIFT, seed=self.seed
        )
        rng = np.random.default_rng([self.seed, 4])
        self.zipf_hosts = rng.permutation(POPULATION)
        weights = np.arange(1, POPULATION + 1, dtype=float) ** -ZIPF_EXPONENT
        self.zipf_cdf = np.cumsum(weights) / weights.sum()
        #: Every acknowledged ``put_many``: a read may legitimately
        #: return any version its pair had during the run.
        self.written: list[tuple] = []
        self.write_stats = {
            key: array("d") for key in ("latency", "observe", "flush", "put")
        }
        self.vectors_flushed = 0
        self.lateness = array("d")

    def _snapshot(self) -> ServiceSnapshot:
        # The traced cluster starts from the primary's current vectors.
        if self.service is None:
            return super()._snapshot()
        return self.service.snapshot()

    def _zipf(self, rng, count: int) -> list[int]:
        return self.zipf_hosts[
            np.searchsorted(self.zipf_cdf, rng.random(count))
        ].tolist()

    async def _traffic(self, seconds: float) -> Round:
        frontend = self.cluster.frontend
        tracer = get_tracer()
        result = Round()
        self.round_index += 1
        rng = np.random.default_rng([self.seed, 5, self.round_index])
        gaps = rng.exponential(1.0 / READ_RATE, int(READ_RATE * seconds * 1.3) + 64)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        sources = self._zipf(rng, offsets.size)
        destinations = self._zipf(rng, offsets.size)
        answered = (array("q"), array("q"), array("d"))
        sent_latencies = array("d")
        lateness = self.lateness

        async def read(due: float, source: int, destination: int) -> None:
            sent = time.perf_counter()
            lateness.append(sent - due)
            with tracer.span("bench:point") as span:
                future = frontend.submit(source, destination)
                if future.done():
                    span.set_attribute(attribution.CACHE_HIT, True)
                try:
                    value = await future
                except Exception as error:  # noqa: BLE001 - counted
                    self.failures.add(error)
                    result.failed += 1
                    return
            done = time.perf_counter()
            result.latencies.append(done - due)
            sent_latencies.append(done - sent)
            for column, item in zip(answered, (source, destination, value)):
                column.append(item)

        started = time.perf_counter()
        writer = asyncio.create_task(self._write_stream(started, seconds, result))
        tasks = []
        for offset, source, destination in zip(
            offsets.tolist(), sources, destinations
        ):
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(read(due, source, destination)))
        await asyncio.gather(*tasks)
        await writer
        result.seconds = time.perf_counter() - started
        result.attempted += len(tasks)
        result.ops = len(answered[2])
        self._records = answered
        self._sent_latencies = sent_latencies
        return result

    async def _write_stream(
        self, started: float, seconds: float, result: Round
    ) -> None:
        """Chunks of drift samples at WRITE_RATE: observe, flush into
        the primary service, then ``put_many`` through the read router."""
        router = self.cluster.router
        period = WRITE_CHUNK / WRITE_RATE
        stats = self.write_stats
        for index in itertools.count():
            due = started + index * period
            if due >= started + seconds:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            chunk = list(itertools.islice(self.stream, WRITE_CHUNK))
            if not chunk:
                raise RuntimeError("drift stream exhausted: raise its budget")
            result.attempted += 1
            began = time.perf_counter()
            self.worker.observe_batch(chunk)
            observed = time.perf_counter()
            self.worker.flush()
            flushed = time.perf_counter()
            if not self.captured:
                continue
            host_ids, outgoing, incoming = self.captured.pop()
            try:
                await router.put_many(host_ids, outgoing, incoming)
            except Exception as error:  # noqa: BLE001 - counted
                self.failures.add(error)
                result.failed += 1
                continue
            acknowledged = time.perf_counter()
            self.writes += 1
            self.vectors_flushed += len(host_ids)
            stats["latency"].append(acknowledged - due)
            stats["observe"].append(observed - began)
            stats["flush"].append(flushed - observed)
            stats["put"].append(acknowledged - flushed)
            self.written.append((host_ids, outgoing, incoming))

    def _wrong_reads(self) -> int:
        """Reads whose value matches no (source version, destination
        version) pair: the initial vectors or any acknowledged write."""
        sources, destinations, values = (np.asarray(c) for c in self._records)
        initial = np.einsum(
            "ij,ij->i", self.outgoing[sources], self.incoming[destinations]
        )
        suspects = np.flatnonzero(~_close(values, initial))
        if suspects.size == 0 or not self.written:
            return int(suspects.size)
        hosts = np.concatenate([np.asarray(ids) for ids, _, _ in self.written])
        order = np.argsort(hosts, kind="stable")
        hosts = hosts[order]
        written_out = np.vstack([o for _, o, _ in self.written])[order]
        written_in = np.vstack([i for _, _, i in self.written])[order]

        def versions(base: np.ndarray, written: np.ndarray, host: int) -> np.ndarray:
            low = np.searchsorted(hosts, host, "left")
            high = np.searchsorted(hosts, host, "right")
            return np.vstack([base[host], written[low:high]])

        wrong = 0
        for i in suspects.tolist():
            candidates = versions(self.outgoing, written_out, sources[i]) @ versions(
                self.incoming, written_in, destinations[i]
            ).T
            wrong += not _close(candidates, values[i]).any()
        return wrong

    async def _verify(self, result: Round) -> None:
        result.wrong = self._wrong_reads()
        self.check("refresh_read_answers", result.wrong == 0)
        # Quiet now: every write was acknowledged by both replicas.
        digests = await self.cluster.member_fields("digest")
        self.check(
            "replica_digests_equal",
            len({(d["digest"], d["seq"]) for d in digests}) == 1,
        )
        ids = list(range(POPULATION))
        served_out, served_in = await self.cluster.router.gather(ids)
        primary_out, primary_in = self.service.store.gather(ids)
        self.check(
            "replicas_equal_primary",
            np.array_equal(served_out, primary_out)
            and np.array_equal(served_in, primary_in),
        )
        health = await self.cluster.router.health()
        self.check(
            "zero_seq_lag",
            all(
                replica.seq_lag == 0
                for shard in health.shards
                for replica in shard.replicas
            ),
        )

    async def finish(self) -> None:
        await super().finish()
        stats = self.write_stats
        self.layers.update(
            {
                "refresh.observe_us": float(np.mean(stats["observe"])) * 1e6,
                "refresh.flush_us": float(np.mean(stats["flush"])) * 1e6,
                "refresh.vectors_per_flush": self.vectors_flushed / max(self.writes, 1),
                "replica.put_many_us": float(np.mean(stats["put"])) * 1e6,
                "write.p50_ms": percentile_ms(stats["latency"], 50),
                "write.p90_ms": percentile_ms(stats["latency"], 90),
                "bench.generator_late_p99_ms": percentile_ms(self.lateness, 99),
            }
        )

    def _traced_send_latencies(self, result: Round) -> array:
        return self._sent_latencies


# ---------------------------------------------------------------------- #
# model build
# ---------------------------------------------------------------------- #


class FitBuild(Workload):
    """Closed loop of model builds: IDES/SVD then IDES/NMF per op."""

    name = "fit_build"
    serving = False

    def __init__(self, seed, workdir, budget_seconds):
        super().__init__(seed, workdir, budget_seconds)
        self.timers = {
            key: array("d") for key in ("fit_svd", "place_svd", "fit_nmf", "place_nmf")
        }
        #: The NMF model's error at the run's first measured build;
        #: every later build must repeat it.
        self.pinned_nmf_error: float | None = None

    async def setup(self, repeats: int) -> None:
        self._prepare_inputs()
        for _ in range(repeats):
            self._timed_setup()

    def _timed_setup(self) -> None:
        """One set-up: the first SVD + NMF build of fresh model objects."""
        started = time.perf_counter()
        build_model(self.split, "svd")
        build_model(self.split, "nmf")
        build_s = time.perf_counter() - started
        self.setups.append({"fit_s": build_s, "setup_s": build_s})

    def _op(self) -> tuple[float, object, object]:
        started = time.perf_counter()
        svd, fit_svd, place_svd = build_model(self.split, "svd")
        nmf, fit_nmf, place_nmf = build_model(self.split, "nmf")
        elapsed = time.perf_counter() - started
        for key, value in zip(self.timers, (fit_svd, place_svd, fit_nmf, place_nmf)):
            self.timers[key].append(value)
        return elapsed, svd, nmf

    async def warmup(self, seconds: float) -> None:
        """At least ``seconds``, then until two consecutive builds are
        within 2x of each other (BLAS start-up makes the first second
        of builds far slower than steady state)."""
        started = time.perf_counter()
        previous = None
        while True:
            elapsed, _, _ = self._op()
            steady = previous is not None and max(elapsed, previous) <= 2 * min(
                elapsed, previous
            )
            waited = time.perf_counter() - started
            if (steady and waited >= seconds) or waited >= WARMUP_CAP_SECONDS:
                break
            previous = elapsed
        for key in self.timers:
            self.timers[key] = array("d")

    async def run_round(self, seconds: float) -> Round:
        # A set-up takes milliseconds, so one more sample per round is
        # free; spread over the run, the samples' median no longer hangs
        # on the machine's speed at a single instant.
        self._timed_setup()
        result = Round()
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        stop_at = started + seconds
        svd = nmf = None
        while time.perf_counter() < stop_at:
            result.attempted += 1
            elapsed, svd, nmf = self._op()
            result.latencies.append(elapsed)
            landmark_out, landmark_in = nmf.landmark_vectors()
            if (landmark_out < 0).any() or (landmark_in < 0).any():
                result.wrong += 1
        result.seconds = time.perf_counter() - started
        result.cpu_seconds = cpu_seconds() - cpu_before
        result.ops = len(result.latencies)
        self.check("nmf_nonnegative", result.wrong == 0)
        if svd is not None:
            self.model_error = rel_error_p50(svd, self.split)
            if abs(self.model_error - self.reference_error) > PINNED_TOLERANCE:
                result.wrong += 1
            nmf_error = rel_error_p50(nmf, self.split)
            if self.pinned_nmf_error is None:
                self.pinned_nmf_error = nmf_error
            if abs(nmf_error - self.pinned_nmf_error) > PINNED_TOLERANCE:
                result.wrong += 1
            self.check(
                "rel_error_pinned",
                abs(self.model_error - self.reference_error) <= PINNED_TOLERANCE
                and abs(nmf_error - self.pinned_nmf_error) <= PINNED_TOLERANCE,
            )
        self.rounds.append(result)
        return result

    async def finish(self) -> None:
        self.rss = peak_rss_mb()
        means = {
            key: float(np.mean(values)) * 1e6 if values else 0.0
            for key, values in self.timers.items()
        }
        self.layers.update(
            {
                "ides.fit_landmarks_svd_us": means["fit_svd"],
                "ides.place_hosts_svd_us": means["place_svd"],
                "ides.fit_landmarks_nmf_us": means["fit_nmf"],
                "ides.place_hosts_nmf_us": means["place_nmf"],
            }
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PointClosed, ScanClosed, RefreshOpen, FitBuild)
}
