"""Micro-benchmarks of the computational kernels.

Where the figure benches time whole experiments once, these use
pytest-benchmark's statistical timing on the individual kernels that
dominate them: SVD factorization, NMF sweeps, batched host placement,
simplex-downhill iterations, King estimation, and topology routing.
They quantify *why* Table 1 comes out the way it does.

The ``*_beats_loop`` tests are acceptance gates for the vectorized
solver core: at P2PSim scale (1143 hosts, d = 10) the mask-grouped and
batched-NNLS placement paths must beat the per-host
``solve_host_vectors`` loop by >= 5x while agreeing with it to 1e-8.
``test_full_placement_beats_multi_rhs_lstsq_3x`` gates the stacked
SVD solve: fully observed placement must beat two multi-right-hand-side
``np.linalg.lstsq`` calls, timed in the same run, by >= 3x. They run
(without statistical timing) in the CI test matrix and feed the
``tools/bench_compare.py`` regression gate via the benchmark job.
"""

import sys
import time

import numpy as np
import pytest

from repro.core import NMFFactorizer, SVDFactorizer
from repro.ides import place_hosts_batch, solve_host_vectors
from repro.linalg import nelder_mead
from repro.measurement import KingConfig, KingEstimator
from repro.routing import pairwise_site_delays
from repro.topology import place_sites, transit_stub_topology

#: P2PSim scale: the paper's largest data set has 1143 hosts at d = 10.
P2PSIM_HOSTS = 1143
PLACEMENT_REFS = 20
PLACEMENT_DIM = 10
PLACEMENT_SPEEDUP_GATE = 5.0
#: Fully observed placement over two multi-RHS ``lstsq`` calls.
FULL_PLACEMENT_GATE = 3.0
#: Best-of runs per side per pass, and passes, for the ratio gate.
BEST_OF = 5
GATE_PASSES = 3


def _placement_workload(seed: int = 0):
    """1143 hosts against 20 references with Figure 7-style masks:
    a handful of distinct patterns, each dropping the same landmarks
    for many hosts."""
    generator = np.random.default_rng(seed)
    reference_out = generator.random((PLACEMENT_REFS, PLACEMENT_DIM))
    reference_in = generator.random((PLACEMENT_REFS, PLACEMENT_DIM))
    out_distances = generator.random((P2PSIM_HOSTS, PLACEMENT_REFS)) * 100
    in_distances = generator.random((PLACEMENT_REFS, P2PSIM_HOSTS)) * 100
    patterns = np.ones((6, PLACEMENT_REFS), dtype=bool)
    for row in range(1, 6):
        patterns[row, generator.choice(PLACEMENT_REFS, 4, replace=False)] = False
    mask = patterns[generator.integers(0, 6, P2PSIM_HOSTS)]
    return reference_out, reference_in, out_distances, in_distances, mask


def _place_hosts_loop(
    out_distances, in_distances, reference_out, reference_in, mask, nonnegative
):
    """The pre-vectorization per-host path: one oracle solve per host."""
    hosts, dimension = out_distances.shape[0], reference_out.shape[1]
    outgoing = np.empty((hosts, dimension))
    incoming = np.empty((hosts, dimension))
    for host in range(hosts):
        vectors = solve_host_vectors(
            np.where(mask[host], out_distances[host], np.nan),
            np.where(mask[host], in_distances[:, host], np.nan),
            reference_out,
            reference_in,
            nonnegative=nonnegative,
            strict=False,
        )
        outgoing[host] = vectors.outgoing
        incoming[host] = vectors.incoming
    return outgoing, incoming


def _gate_placement_speedup(nonnegative: bool) -> None:
    reference_out, reference_in, out_distances, in_distances, mask = (
        _placement_workload()
    )

    def batched():
        return place_hosts_batch(
            out_distances, in_distances, reference_out, reference_in,
            observation_mask=mask, strict=False, nonnegative=nonnegative,
        )

    # Warm (and time, best-of-2) the batched path; the loop is timed
    # once — its cost is two orders of magnitude of Python overhead,
    # not scheduler noise.
    batched_seconds = np.inf
    for _ in range(2):
        start = time.perf_counter()
        batched_out, batched_in = batched()
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    start = time.perf_counter()
    loop_out, loop_in = _place_hosts_loop(
        out_distances, in_distances, reference_out, reference_in, mask,
        nonnegative,
    )
    loop_seconds = time.perf_counter() - start

    np.testing.assert_allclose(batched_out, loop_out, atol=1e-8, rtol=1e-8)
    np.testing.assert_allclose(batched_in, loop_in, atol=1e-8, rtol=1e-8)
    speedup = loop_seconds / batched_seconds
    label = "nnls" if nonnegative else "masked"
    print(
        f"\n[bench_kernels] {label} placement, {P2PSIM_HOSTS} hosts: "
        f"loop {loop_seconds * 1000:.0f} ms, batched "
        f"{batched_seconds * 1000:.1f} ms, speedup {speedup:.1f}x "
        f"(gate >= {PLACEMENT_SPEEDUP_GATE:.0f}x)",
        file=sys.__stdout__,
        flush=True,
    )
    assert speedup >= PLACEMENT_SPEEDUP_GATE, (
        f"{label} batched placement only {speedup:.1f}x the per-host loop"
    )


def test_masked_placement_batched_beats_loop_5x():
    """Acceptance gate: mask-grouped placement >= 5x the per-host loop
    at P2PSim scale, with identical results."""
    _gate_placement_speedup(nonnegative=False)


def test_nnls_placement_batched_beats_loop_5x():
    """Acceptance gate: batched Lawson-Hanson placement >= 5x the
    per-host loop at P2PSim scale, with identical results."""
    _gate_placement_speedup(nonnegative=True)


def _lstsq_placement(out_distances, in_distances, reference_out, reference_in):
    """Fully observed placement as two multi-RHS ``np.linalg.lstsq``
    (gelsd) calls, one per direction, every host a right-hand side."""
    outgoing, *_ = np.linalg.lstsq(reference_in, out_distances.T, rcond=None)
    incoming, *_ = np.linalg.lstsq(reference_out, in_distances, rcond=None)
    return outgoing.T, incoming.T


def test_full_placement_beats_multi_rhs_lstsq_3x():
    """Acceptance gate: fully observed placement at P2PSim scale >= 3x
    two multi-RHS lstsq calls timed in the same run (best-of-5 per
    side), with results equal to 1e-9."""
    reference_out, reference_in, out_distances, in_distances, _ = (
        _placement_workload()
    )
    arguments = (out_distances, in_distances, reference_out, reference_in)
    solvers = {"batched": place_hosts_batch, "lstsq": _lstsq_placement}
    # One untimed warm-up call per side, then each side's best-of-5 in
    # a block: a lone call of either side is dominated by the other's
    # cache and BLAS-thread state, not by its own arithmetic. A pass
    # that misses the gate (a loaded runner) earns up to two retries;
    # each side keeps its best time over all passes.
    results = {name: solve(*arguments) for name, solve in solvers.items()}
    best = {name: np.inf for name in solvers}
    for _ in range(GATE_PASSES):
        for name, solve in solvers.items():
            for _ in range(BEST_OF):
                start = time.perf_counter()
                solve(*arguments)
                best[name] = min(best[name], time.perf_counter() - start)
        if best["lstsq"] / best["batched"] >= FULL_PLACEMENT_GATE:
            break

    for batched, reference in zip(results["batched"], results["lstsq"]):
        np.testing.assert_allclose(
            batched, reference, rtol=1e-9, atol=1e-12 * np.abs(reference).max()
        )
    speedup = best["lstsq"] / best["batched"]
    print(
        f"\n[bench_kernels] full placement, {P2PSIM_HOSTS} hosts: "
        f"multi-RHS lstsq {best['lstsq'] * 1000:.2f} ms, batched "
        f"{best['batched'] * 1000:.2f} ms, speedup {speedup:.1f}x "
        f"(gate >= {FULL_PLACEMENT_GATE:.0f}x)",
        file=sys.__stdout__,
        flush=True,
    )
    assert speedup >= FULL_PLACEMENT_GATE, (
        f"full placement only {speedup:.1f}x two multi-RHS lstsq calls"
    )


@pytest.fixture(scope="module")
def nlanr_matrix(warm_datasets):
    return warm_datasets["nlanr"].matrix


@pytest.fixture(scope="module")
def p2psim_matrix(warm_datasets):
    return warm_datasets["p2psim-1143"].matrix


def test_svd_factorization_nlanr(benchmark, nlanr_matrix):
    """One landmark-scale SVD factorization (110 x 110, d = 10)."""
    model = benchmark(lambda: SVDFactorizer(dimension=10).fit(nlanr_matrix))
    assert model.dimension == 10


def test_svd_factorization_p2psim(benchmark, p2psim_matrix):
    """Full-matrix SVD at P2PSim scale (1143 x 1143, d = 10)."""
    model = benchmark(lambda: SVDFactorizer(dimension=10).fit(p2psim_matrix))
    assert model.dimension == 10


def test_nmf_factorization_nlanr(benchmark, nlanr_matrix):
    """200 Lee-Seung sweeps on the NLANR matrix (d = 10)."""
    factorizer = NMFFactorizer(dimension=10, max_iter=200, tol=0.0, seed=0)
    model = benchmark(lambda: factorizer.fit(nlanr_matrix))
    assert model.is_nonnegative()


def test_host_placement_batch_1000(benchmark):
    """Placing 1000 hosts against 20 landmarks (d = 10), batched."""
    generator = np.random.default_rng(0)
    landmark_out = generator.random((20, 10))
    landmark_in = generator.random((20, 10))
    out_distances = generator.random((1000, 20)) * 100
    in_distances = generator.random((20, 1000)) * 100

    result = benchmark(
        lambda: place_hosts_batch(out_distances, in_distances, landmark_out, landmark_in)
    )
    assert result[0].shape == (1000, 10)


def test_masked_host_placement_200(benchmark):
    """Placing 200 hosts with per-host observation masks (grouped path)."""
    generator = np.random.default_rng(1)
    landmark_out = generator.random((20, 10))
    landmark_in = generator.random((20, 10))
    out_distances = generator.random((200, 20)) * 100
    mask = generator.random((200, 20)) > 0.3

    result = benchmark(
        lambda: place_hosts_batch(
            out_distances, None, landmark_out, landmark_in,
            observation_mask=mask, strict=False,
        )
    )
    assert result[0].shape == (200, 10)


def test_masked_host_placement_p2psim(benchmark):
    """Mask-grouped placement at P2PSim scale (1143 hosts, d = 10)."""
    reference_out, reference_in, out_distances, in_distances, mask = (
        _placement_workload()
    )
    result = benchmark(
        lambda: place_hosts_batch(
            out_distances, in_distances, reference_out, reference_in,
            observation_mask=mask, strict=False,
        )
    )
    assert result[0].shape == (P2PSIM_HOSTS, PLACEMENT_DIM)


def test_nnls_host_placement_p2psim(benchmark):
    """Batched Lawson-Hanson placement at P2PSim scale."""
    reference_out, reference_in, out_distances, in_distances, mask = (
        _placement_workload()
    )
    result = benchmark(
        lambda: place_hosts_batch(
            out_distances, in_distances, reference_out, reference_in,
            observation_mask=mask, strict=False, nonnegative=True,
        )
    )
    assert result[0].shape == (P2PSIM_HOSTS, PLACEMENT_DIM)
    assert (result[0] >= 0).all()


def test_simplex_downhill_160dim_step_budget(benchmark):
    """A 1000-iteration Nelder-Mead run in GNP's landmark dimension."""
    generator = np.random.default_rng(2)
    target = generator.random(160)

    def objective(point):
        difference = point - target
        return float(difference @ difference)

    result = benchmark(
        lambda: nelder_mead(objective, np.zeros(160), max_iter=1000)
    )
    assert result.iterations <= 1000


def test_king_estimation_1143(benchmark, p2psim_matrix):
    """King error application over the 1143-host matrix."""
    symmetric = 0.5 * (p2psim_matrix + p2psim_matrix.T)
    estimate = benchmark(
        lambda: KingEstimator(KingConfig(), seed=0).estimate_matrix(symmetric)
    )
    assert estimate.shape == symmetric.shape


def test_topology_generation_and_routing(benchmark):
    """Transit-stub build plus 20-site all-pairs Dijkstra."""

    def build():
        topology = transit_stub_topology(seed=0)
        sites = place_sites(topology, 20, seed=0)
        return pairwise_site_delays(topology, sites.site_indices)

    delays = benchmark(build)
    assert delays.shape == (20, 20)
