"""Serving-layer benchmark: batched queries vs. per-pair estimation.

Quantifies the three claims the :mod:`repro.serving` subsystem makes:

* the fully vectorized many-to-many path answers a 1,000-host
  all-pairs workload >= 10x faster than calling the factored model's
  per-pair ``predict`` in a Python loop (in practice the gap is two to
  three orders of magnitude);
* a full-scan 10-NN query over 8192 live hosts, scored in place by
  ``InMemoryVectorStore.nearest``, is >= 10x faster than the id-list
  scan that gathers every live row first, on a packed store and on a
  half-occupied one; and
* a skewed (Zipf-like) point-query stream sees high cache hit rates
  from the LRU prediction cache.

Run statistically with pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py --benchmark-only

or standalone for a quick wall-clock report::

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from harness import id_list_nearest
from repro.core import FactoredDistanceModel
from repro.serving import DistanceService, InMemoryVectorStore

N_HOSTS = 1000
DIMENSION = 10
KNN_HOSTS = 8192
KNN_K = 10
KNN_GATE = 10.0
BEST_OF = 5
GATE_PASSES = 3
#: The two scans score a row with BLAS calls over arrays of different
#: lengths, which may sum a row's d products in different orders; for
#: positive terms the results then differ by at most 2 d eps relative.
SUM_ORDER_RTOL = 2 * DIMENSION * np.finfo(float).eps


def build_workload(
    n_hosts: int = N_HOSTS, dimension: int = DIMENSION
) -> tuple[FactoredDistanceModel, DistanceService, list]:
    """A service and the equivalent factored model over random vectors."""
    rng = np.random.default_rng(0)
    outgoing = rng.random((n_hosts, dimension))
    incoming = rng.random((n_hosts, dimension))
    model = FactoredDistanceModel(outgoing=outgoing, incoming=incoming)
    ids = list(range(n_hosts))
    service = DistanceService.from_vectors(
        ids, outgoing, incoming, landmark_ids=ids[:20]
    )
    return model, service, ids


def time_naive_all_pairs(model: FactoredDistanceModel, n_hosts: int) -> float:
    """Seconds for an n x n sweep of per-pair ``predict`` calls."""
    started = time.perf_counter()
    total = 0.0
    for i in range(n_hosts):
        for j in range(n_hosts):
            total += model.predict(i, j)
    elapsed = time.perf_counter() - started
    assert np.isfinite(total)
    return elapsed


def time_batched_all_pairs(service: DistanceService, ids: list) -> float:
    """Seconds for the same sweep through ``query_many_to_many``."""
    started = time.perf_counter()
    block = service.query_many_to_many(ids, ids)
    elapsed = time.perf_counter() - started
    assert block.shape == (len(ids), len(ids))
    return elapsed


def cache_hit_rate_under_zipf(
    service: DistanceService, ids: list, n_queries: int = 20000, a: float = 1.3
) -> float:
    """Hit rate of a Zipf-skewed point-query stream (cold cache start)."""
    rng = np.random.default_rng(1)
    n = len(ids)
    sources = np.minimum(rng.zipf(a, size=n_queries) - 1, n - 1)
    destinations = np.minimum(rng.zipf(a, size=n_queries) - 1, n - 1)
    service.cache.clear()
    service.cache.reset_counters()
    for s, d in zip(sources, destinations):
        service.query(ids[int(s)], ids[int(d)])
    return service.cache.stats().hit_rate


def test_batched_at_least_10x_faster_than_naive():
    """Acceptance gate: vectorized serving beats the per-pair loop >= 10x."""
    model, service, ids = build_workload()
    naive = time_naive_all_pairs(model, len(ids))
    batched = time_batched_all_pairs(service, ids)
    speedup = naive / batched
    print(
        f"\n[bench_serving] {len(ids)}x{len(ids)} pairs: naive {naive:.3f}s, "
        f"batched {batched * 1000:.1f}ms, speedup {speedup:.0f}x",
        file=sys.__stdout__,
        flush=True,
    )
    assert speedup >= 10.0, f"batched path only {speedup:.1f}x faster"


def knn_store(capacity: int, seed: int = 0) -> InMemoryVectorStore:
    """``KNN_HOSTS`` live hosts in a store of ``capacity`` rows: filled,
    then thinned to ``KNN_HOSTS`` by deleting random hosts."""
    rng = np.random.default_rng(seed)
    store = InMemoryVectorStore(DIMENSION, initial_capacity=capacity)
    store.put_many(
        list(range(capacity)),
        rng.random((capacity, DIMENSION)),
        rng.random((capacity, DIMENSION)),
    )
    for host in rng.choice(capacity, capacity - KNN_HOSTS, replace=False):
        store.delete(int(host))
    return store


@pytest.mark.parametrize(
    "capacity", [KNN_HOSTS, 2 * KNN_HOSTS], ids=["packed", "half_occupied"]
)
def test_full_scan_nearest_beats_id_list_10x(capacity):
    """Acceptance gate: the in-place full-scan 10-NN >= 10x the id-list
    scan timed in the same run (best-of-5 per side), same answers."""
    store = knn_store(capacity)
    # A source from the middle of the store, like most of a router's
    # random sources: excluding it leaves a hole in the rows that the
    # id-list scan gathers.
    source = store.ids()[KNN_HOSTS // 2]
    source_out = store.get(source).outgoing
    scans = {
        "in_place": lambda: store.nearest(source_out, KNN_K, exclude=source),
        "id_list": lambda: id_list_nearest(
            store, source_out, KNN_K, exclude=source
        ),
    }
    # As in bench_kernels' placement gate: one untimed call per side,
    # then each side's best-of-5 in a block; a pass that misses the gate
    # (a loaded runner) earns up to two retries, and each side keeps its
    # best time over all passes.
    results = {name: scan() for name, scan in scans.items()}
    best = {name: np.inf for name in scans}
    for _ in range(GATE_PASSES):
        for name, scan in scans.items():
            for _ in range(BEST_OF):
                start = time.perf_counter()
                scan()
                best[name] = min(best[name], time.perf_counter() - start)
        if best["id_list"] / best["in_place"] >= KNN_GATE:
            break

    ids, distances, scanned = results["in_place"]
    reference_ids, reference_distances, reference_scanned = results["id_list"]
    assert ids == reference_ids
    assert scanned == reference_scanned == KNN_HOSTS - 1
    np.testing.assert_allclose(
        distances, reference_distances, rtol=SUM_ORDER_RTOL, atol=0
    )
    speedup = best["id_list"] / best["in_place"]
    print(
        f"\n[bench_serving] full-scan {KNN_K}-NN, {KNN_HOSTS} live hosts in "
        f"{capacity} rows: id-list {best['id_list'] * 1e6:.0f} us, in place "
        f"{best['in_place'] * 1e6:.0f} us, speedup {speedup:.1f}x "
        f"(gate >= {KNN_GATE:.0f}x)",
        file=sys.__stdout__,
        flush=True,
    )
    assert speedup >= KNN_GATE, (
        f"in-place full scan only {speedup:.1f}x the id-list scan"
    )


def test_cache_absorbs_skewed_traffic():
    """A Zipf point-query stream should mostly hit the LRU cache."""
    _, service, ids = build_workload()
    hit_rate = cache_hit_rate_under_zipf(service, ids)
    print(
        f"[bench_serving] zipf(1.3) stream of 20000 point queries: "
        f"cache hit rate {hit_rate:.1%}",
        file=sys.__stdout__,
        flush=True,
    )
    assert hit_rate > 0.5


def test_many_to_many_throughput(benchmark):
    """Statistical timing of the 1000 x 1000 batched block."""
    _, service, ids = build_workload()
    block = benchmark(lambda: service.query_many_to_many(ids, ids))
    assert block.shape == (N_HOSTS, N_HOSTS)


def test_one_to_many_throughput(benchmark):
    """Statistical timing of a 1 x 1000 fan-out query."""
    _, service, ids = build_workload()
    values = benchmark(lambda: service.query_one_to_many(ids[0], ids))
    assert values.shape == (N_HOSTS,)


def test_k_nearest_throughput(benchmark):
    """Statistical timing of a full-pool 10-NN query."""
    _, service, ids = build_workload()
    result = benchmark(lambda: service.k_nearest(ids[0], 10))
    assert len(result) == 10


def test_incremental_registration_throughput(benchmark):
    """Statistical timing of one host registration (two small solves)."""
    _, service, ids = build_workload()
    rng = np.random.default_rng(2)
    measurements = rng.random(20) * 100

    def register():
        service.register_host("newcomer", measurements)
        return service.evict_host("newcomer")

    assert benchmark(register) is True


def main() -> int:
    model, service, ids = build_workload()
    naive = time_naive_all_pairs(model, len(ids))
    batched = time_batched_all_pairs(service, ids)
    pairs = len(ids) ** 2
    print(f"workload: {len(ids)} hosts, d={DIMENSION}, {pairs} pairs")
    print(f"naive per-pair loop : {naive:8.3f} s  ({pairs / naive:,.0f} pairs/s)")
    print(f"batched many-to-many: {batched:8.4f} s  ({pairs / batched:,.0f} pairs/s)")
    print(f"speedup             : {naive / batched:8.0f} x")
    hit_rate = cache_hit_rate_under_zipf(service, ids)
    print(f"zipf cache hit rate : {hit_rate:8.1%}")
    print(f"service health      : {service.health()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
