#!/usr/bin/env python
"""Serving quickstart: from a fitted IDES model to an online service.

Builds on ``examples/quickstart.py``: after fitting the model once,
everything here happens *without another factorization* —

1. export the fitted model as a sharded, cached ``DistanceService``,
2. answer point / one-to-many / many-to-many queries as batch ops,
3. find the k nearest registered hosts to a client,
4. register a brand-new host at runtime from its landmark probes,
5. snapshot the service to disk and reload it (a query frontend), and
6. read the service health counters.

Run with::

    python examples/serving_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import DistanceService, IDESSystem, load_dataset, split_landmarks


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Fit once (exactly as in quickstart.py), then export to a
    #    service: one in-memory vector store, LRU point-query cache.
    # ------------------------------------------------------------------
    dataset = load_dataset("nlanr")
    split = split_landmarks(dataset, n_landmarks=20, seed=42)
    ides = IDESSystem(dimension=10, method="svd")
    ides.fit_landmarks(split.landmark_matrix)
    ides.place_hosts(split.out_distances, split.in_distances)

    hold_out = 5  # keep a few hosts aside to register online later
    serve_ids = [int(i) for i in split.ordinary_indices[:-hold_out]]
    service = DistanceService.from_vectors(
        [int(i) for i in split.landmark_indices] + serve_ids,
        np.vstack([ides.landmark_vectors()[0], ides.host_vectors()[0][:-hold_out]]),
        np.vstack([ides.landmark_vectors()[1], ides.host_vectors()[1][:-hold_out]]),
        landmark_ids=[int(i) for i in split.landmark_indices],
        cache_entries=4096,
    )
    print(f"service up: {service.health()}")
    print()

    # ------------------------------------------------------------------
    # 2. Queries. Point queries go through the cache; the repeat is
    #    answered without touching the vector store.
    # ------------------------------------------------------------------
    a, b = serve_ids[0], serve_ids[1]
    print(f"point    {a} -> {b}: {service.query(a, b):.2f} ms")
    print(f"repeat   {a} -> {b}: {service.query(a, b):.2f} ms (cache hit)")

    fan_out = service.query_one_to_many(a, serve_ids[1:9])
    print(f"fan-out  {a} -> 8 hosts: {np.round(fan_out, 1)}")

    block = service.query_many_to_many(serve_ids[:40], serve_ids[:40])
    print(f"block    40 x 40 pairs in one matrix product: shape {block.shape}")
    print()

    # ------------------------------------------------------------------
    # 3. k-nearest: mirror selection in one call (cf. Section 7).
    # ------------------------------------------------------------------
    neighbors = service.k_nearest(a, 5)
    print(f"5 nearest hosts to {a}:")
    for host_id, distance in neighbors:
        print(f"  {host_id}: {distance:.2f} ms")
    print()

    # ------------------------------------------------------------------
    # 4. A held-out host joins the running service: it probes the
    #    landmarks, the service solves its vectors (Eqs. 13-14), and it
    #    is immediately queryable. No refactorization.
    # ------------------------------------------------------------------
    newcomer = int(split.ordinary_indices[-1])
    row = split.n_ordinary - 1
    service.register_host(
        newcomer,
        split.out_distances[row],
        split.in_distances[:, row],
    )
    predicted = service.query(newcomer, a)
    true = dataset.matrix[newcomer, a]
    print(
        f"late-joining host {newcomer}: predicted {predicted:.2f} ms to host "
        f"{a}, true {true:.2f} ms"
    )
    print()

    # ------------------------------------------------------------------
    # 5. Snapshot to disk; a fresh process would load and serve warm.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as scratch:
        path = service.save(Path(scratch) / "service.npz")
        frontend = DistanceService.load(path)
        assert frontend.query(newcomer, a) == predicted
        print(f"snapshot round trip via {path.name}: frontend agrees exactly")
    print()

    # ------------------------------------------------------------------
    # 6. Health: counters for dashboards and capacity planning.
    # ------------------------------------------------------------------
    print(f"service health: {service.health()}")


if __name__ == "__main__":
    main()
