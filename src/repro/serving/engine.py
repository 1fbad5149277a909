"""The query engine: batched distance predictions over a vector store.

Every query shape — point, one-to-many, many-to-many — reduces to
gathering the relevant rows of the ``X``/``Y`` matrices and one dense
product ``X[rows] @ Y[cols].T`` (paper Eq. 4). A full-scan k-nearest
query gathers nothing: the store scores its own rows in place
(:meth:`~repro.serving.store.InMemoryVectorStore.nearest`). There is
deliberately no per-pair Python loop anywhere on the read path; that
is the entire performance story of the serving layer, quantified by
``benchmarks/bench_serving.py``.

Thread-safety: the engine holds no query state of its own — reads are
as safe as the underlying store's gathers (which lock internally) —
but its served-work counters are mutated from every driver at once
(thread-per-client servers, the asyncio dispatcher, refresh streams,
shard-server RPC handlers), so counter updates serialize on a lock.
In a cross-process deployment each
:class:`~repro.serving.transport.ShardServer` owns a private engine;
the router sums their counters into one health report.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from ..exceptions import ValidationError
from .store import InMemoryVectorStore, top_k_ascending

__all__ = ["QueryEngine"]


class QueryEngine:
    """Stateless-by-data query executor with served-work counters.

    Counter updates take a lock: the engine is driven concurrently (a
    thread-per-client server, the asyncio dispatcher, the refresh
    worker's streams), and unsynchronized ``+=`` would silently lose
    increments.

    Args:
        store: the :class:`InMemoryVectorStore` holding host vectors.
        zero_copy: gather row *views* instead of copies where the
            engine consumes them immediately (one product, result
            owned). Only safe when the store is mutated solely from
            the caller's own event loop — the shard server's
            deployment shape; the thread-shared
            :class:`~repro.serving.service.DistanceService` keeps the
            default.

    Attributes:
        queries_served: number of engine calls answered.
        pairs_evaluated: total (source, destination) pairs predicted —
            the unit the throughput benchmark reports.
    """

    def __init__(self, store: InMemoryVectorStore, zero_copy: bool = False):
        self.store = store
        self.queries_served = 0
        self.pairs_evaluated = 0
        self._copy = not bool(zero_copy)
        self._counter_lock = threading.Lock()

    def _count(self, pairs: int) -> None:
        with self._counter_lock:
            self.queries_served += 1
            self.pairs_evaluated += pairs

    def bind_metrics(self, registry, component: str = "engine") -> None:
        """Expose the served-work counters through a metrics registry.

        A scrape-time collector over the existing locked counters; the
        query hot path is untouched. ``component`` distinguishes
        co-resident engines (a service's vs an embedded shard's).
        """
        from .observability.metrics import Sample

        label = (("component", component),)

        def collect():
            with self._counter_lock:
                served, pairs = self.queries_served, self.pairs_evaluated
            return [
                Sample("ides_engine_queries_served_total", "counter",
                       "Queries answered by the engine.", label, served),
                Sample("ides_engine_pairs_evaluated_total", "counter",
                       "Host pairs evaluated by the engine.", label, pairs),
            ]

        registry.register_collector(collect)

    # ------------------------------------------------------------------ #
    # query shapes
    # ------------------------------------------------------------------ #

    def point(self, source_id: object, destination_id: object) -> float:
        """Predicted distance for one (source, destination) pair."""
        source = self.store.get(source_id)
        destination = self.store.get(destination_id)
        self._count(1)
        return float(source.outgoing @ destination.incoming)

    def pairs(
        self, source_ids: Sequence, destination_ids: Sequence
    ) -> np.ndarray:
        """Per-pair distances for aligned source/destination sequences.

        ``result[i]`` is the predicted distance ``source_ids[i] ->
        destination_ids[i]``. This is the coalescing primitive of the
        concurrent frontend: a micro-batch of point queries from many
        independent callers becomes two gathers and one row-wise
        product, instead of ``n`` separate :meth:`point` calls.
        """
        if len(source_ids) != len(destination_ids):
            raise ValidationError(
                f"pairs needs aligned sequences, got {len(source_ids)} "
                f"sources and {len(destination_ids)} destinations"
            )
        outgoing, _ = self.store.gather(source_ids, copy=self._copy)
        _, incoming = self.store.gather(destination_ids, copy=self._copy)
        self._count(len(source_ids))
        return np.einsum("ij,ij->i", outgoing, incoming)

    def one_to_many(self, source_id: object, destination_ids: Sequence) -> np.ndarray:
        """Distances from one source to each destination, vectorized."""
        source = self.store.get(source_id)
        _, incoming = self.store.gather(destination_ids, copy=self._copy)
        self._count(len(destination_ids))
        return incoming @ source.outgoing

    def many_to_one(self, source_ids: Sequence, destination_id: object) -> np.ndarray:
        """Distances from each source to one destination, vectorized."""
        destination = self.store.get(destination_id)
        outgoing, _ = self.store.gather(source_ids, copy=self._copy)
        self._count(len(source_ids))
        return outgoing @ destination.incoming

    def many_to_many(
        self, source_ids: Sequence, destination_ids: Sequence
    ) -> np.ndarray:
        """The ``(n_src, n_dst)`` prediction block ``X[rows] @ Y[cols].T``."""
        outgoing, _ = self.store.gather(source_ids, copy=self._copy)
        _, incoming = self.store.gather(destination_ids, copy=self._copy)
        self._count(len(source_ids) * len(destination_ids))
        return outgoing @ incoming.T

    def k_nearest(
        self,
        source_id: object,
        k: int,
        candidate_ids: Sequence | None = None,
        include_self: bool = False,
    ) -> list[tuple[object, float]]:
        """The ``k`` candidates with the smallest predicted distance.

        Args:
            source_id: querying host.
            k: number of neighbors to return.
            candidate_ids: pool to search; defaults to every stored
                host.
            include_self: keep ``source_id`` itself in the result when
                it appears among the candidates.

        Returns:
            ``[(host_id, predicted_distance), ...]`` sorted ascending.

        The source's outgoing vector goes to :meth:`nearest`, so the
        cost is one matrix-vector product and an O(n + k log k)
        selection, never a full sort; only an explicit candidate pool
        adds a gather of the pool's rows.
        """
        source = self.store.get(source_id)
        ids, distances = self.nearest(
            source.outgoing,
            k,
            candidate_ids,
            exclude=None if include_self else source_id,
        )
        return list(zip(ids, distances.tolist()))

    def nearest(
        self,
        source_out: np.ndarray,
        k: int,
        candidate_ids: Sequence | None = None,
        exclude: object = None,
    ) -> tuple[list, np.ndarray]:
        """``(ids, distances)`` of the ``k`` hosts nearest a source vector.

        The vector form of :meth:`k_nearest`, also behind the shard
        server's ``nearest`` RPC (the router ships the source vector).
        Without ``candidate_ids`` the store scores its rows in place
        (:meth:`InMemoryVectorStore.nearest`) and equal distances come
        out in store row order; a candidate pool is gathered as one
        ``(n, d)`` block and its ties follow pool order. ``exclude``
        leaves one host out of either scan. The counters record one
        query of as many pairs as hosts were scored, and nothing when
        none was.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if candidate_ids is None:
            ids, distances, scanned = self.store.nearest(source_out, k, exclude)
        else:
            pool = [c for c in candidate_ids if c != exclude]
            scanned = len(pool)
            ids, distances = [], np.zeros(0)
            if pool:
                _, incoming = self.store.gather(pool, copy=self._copy)
                scores = incoming @ source_out
                top = top_k_ascending(scores, k)
                ids, distances = [pool[int(i)] for i in top], scores[top]
        if scanned:
            self._count(scanned)
        return ids, distances

    def count_served(self, pairs: int) -> None:
        """Record one query of ``pairs`` pairs answered outside the engine.

        The shard-server RPC handlers use this for vector-carrying
        operations (a router ships a source vector instead of a source
        id, so the dot products happen against the store directly): the
        work still shows up in :class:`ServiceHealth` per-shard
        counters either way.
        """
        self._count(int(pairs))

    def reset_counters(self) -> None:
        """Zero the served-work counters (benchmark hygiene)."""
        with self._counter_lock:
            self.queries_served = 0
            self.pairs_evaluated = 0
