"""The vector store: the directory layer of the query service.

:class:`InMemoryVectorStore` maps host identifiers to their
``(outgoing, incoming)`` model vectors with O(1) lookup, and — crucially
for the query engine — gathers many hosts' vectors into dense ``(n, d)``
matrices in one shot so that every query becomes a NumPy batch
operation instead of a per-pair Python loop. A full-scan k-nearest
query gathers nothing: :meth:`InMemoryVectorStore.nearest` scores the
store's rows where they lie and maps only the winners back to
identifiers.

The store is thread-safe: a background refresh worker can bulk
``put_many`` new vectors while the query path gathers, without torn
row maps (writes, gathers and scans serialize on one RLock).

A :class:`~repro.serving.service.DistanceService` holds one store, and
so does each :class:`~repro.serving.transport.ShardServer` of a
cross-process deployment. That deployment assigns hosts to shards with
:func:`shard_of` (in the router, the shard servers and snapshot
slicing), and the router splits its batches with
:func:`group_by_shard`.
"""

from __future__ import annotations

import threading
import zlib
from itertools import repeat
from typing import Sequence

import numpy as np

from .._validation import check_dimension
from ..exceptions import ValidationError
from ..ides.vectors import HostVectors

__all__ = [
    "InMemoryVectorStore",
    "shard_of",
    "group_by_shard",
    "top_k_ascending",
]


def top_k_ascending(distances: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest distances, ascending.

    One ``argpartition`` plus a stable sort of the winners taken in
    position order — O(n + k log k), never a full sort. Equal distances
    among the winners come out in position order; when several
    positions tie at the ``k``-th distance, which of them make the cut
    is unspecified. Shared by :meth:`InMemoryVectorStore.nearest`
    (positions are store rows) and
    :meth:`~repro.serving.QueryEngine.nearest`'s explicit candidate
    pool (positions follow the pool).
    """
    k = min(int(k), distances.shape[0])
    top = np.sort(np.argpartition(distances, k - 1)[:k])
    return top[np.argsort(distances[top], kind="stable")]


def shard_of(host_id: object, n_shards: int) -> int:
    """Stable shard assignment for a host identifier.

    Uses CRC-32 of the identifier's string form rather than Python's
    builtin ``hash`` so that the same identifier lands on the same
    shard across processes and snapshot reloads — the invariant the
    cross-process transport (:mod:`repro.serving.transport`) relies on
    to route requests without a directory lookup.
    """
    return zlib.crc32(repr(host_id).encode("utf-8")) % n_shards


def group_by_shard(host_ids: Sequence, n_shards: int) -> dict[int, np.ndarray]:
    """Positions of ``host_ids`` grouped by their ``shard_of`` shard.

    The scatter primitive of the cross-process
    :class:`~repro.serving.transport.ShardedQueryRouter`, which turns
    each group into one RPC: ``result[shard] -> array of positions``,
    so results can be written back into request order.
    """
    if n_shards == 1:
        # shard_of(x, 1) is 0 for every x: nothing to hash.
        return {0: np.arange(len(host_ids))} if len(host_ids) else {}
    assignments = np.fromiter(
        (shard_of(host_id, n_shards) for host_id in host_ids),
        dtype=int,
        count=len(host_ids),
    )
    return {
        int(shard_index): np.flatnonzero(assignments == shard_index)
        for shard_index in np.unique(assignments)
    }


class InMemoryVectorStore:
    """Array-backed store with O(1) lookup and vectorized gather.

    Vectors live in two ``(capacity, d)`` arrays that double on demand,
    and a dict maps identifiers to rows. The ``n`` stored hosts always
    hold rows ``0..n-1``: a new host takes row ``n``, and a delete moves
    the last host's vectors into the freed row. Long-running
    register/evict churn therefore does not leak capacity, and
    :meth:`nearest` scores exactly the stored rows, never a free row's
    stale or zero vectors.

    Args:
        dimension: model dimension ``d``.
        initial_capacity: starting number of vector slots.
    """

    def __init__(self, dimension: int, initial_capacity: int = 64):
        self._dimension = check_dimension(dimension)
        capacity = max(1, int(initial_capacity))
        self._outgoing = np.zeros((capacity, self._dimension))
        self._incoming = np.zeros((capacity, self._dimension))
        self._row_of: dict[object, int] = {}
        self._id_of_row: list = []
        self._lock = threading.RLock()

    @property
    def dimension(self) -> int:
        """Model dimension ``d`` of every stored vector."""
        return self._dimension

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _claim_rows(self, host_ids: Sequence) -> np.ndarray:
        """Rows of ``host_ids`` in request order (call with the lock
        held). Stored hosts keep their rows; new hosts claim the next
        free rows in first-appearance order, all in one step, and an id
        repeated in the batch gets one row. An unhashable id raises
        before anything is claimed."""
        rows = np.fromiter(
            map(self._row_of.get, host_ids, repeat(-1)),
            dtype=np.intp,
            count=len(host_ids),
        )
        new = np.flatnonzero(rows < 0)
        if new.size:
            if new.size == rows.size:
                pending = host_ids
            else:
                pending = list(map(host_ids.__getitem__, new.tolist()))
            fresh = dict.fromkeys(pending)
            start = len(self._id_of_row)
            claimed = range(start, start + len(fresh))
            self._reserve(claimed.stop)
            self._row_of.update(zip(fresh, claimed))
            self._id_of_row.extend(fresh)
            if len(fresh) == new.size:
                rows[new] = np.arange(start, claimed.stop)
            else:
                rows[new] = list(map(self._row_of.__getitem__, pending))
        return rows

    def _reserve(self, needed: int) -> None:
        """Double the capacity until ``needed`` rows fit (one copy)."""
        old = capacity = self._outgoing.shape[0]
        while capacity < needed:
            capacity *= 2
        if capacity == old:
            return
        grown_out = np.zeros((capacity, self._dimension))
        grown_in = np.zeros((capacity, self._dimension))
        grown_out[:old] = self._outgoing
        grown_in[:old] = self._incoming
        self._outgoing = grown_out
        self._incoming = grown_in

    def put(self, host_id: object, vectors: HostVectors) -> None:
        """Insert or overwrite one host's vectors."""
        if vectors.dimension != self._dimension:
            raise ValidationError(
                f"vectors have dimension {vectors.dimension}, store uses "
                f"{self._dimension}"
            )
        with self._lock:
            row = self._claim_rows([host_id])[0]
            self._outgoing[row] = vectors.outgoing
            self._incoming[row] = vectors.incoming

    def put_many(
        self, host_ids: Sequence, outgoing: np.ndarray, incoming: np.ndarray
    ) -> None:
        """Insert or overwrite many hosts from ``(n, d)`` matrices."""
        outgoing = np.asarray(outgoing, dtype=float)
        incoming = np.asarray(incoming, dtype=float)
        expected = (len(host_ids), self._dimension)
        if outgoing.shape != expected or incoming.shape != expected:
            raise ValidationError(
                f"put_many expects matrices of shape {expected}, got "
                f"{outgoing.shape} and {incoming.shape}"
            )
        with self._lock:
            rows = self._claim_rows(host_ids)
            self._outgoing[rows] = outgoing
            self._incoming[rows] = incoming

    def delete(self, host_id: object) -> bool:
        """Remove a host; returns whether it was present."""
        with self._lock:
            row = self._row_of.pop(host_id, None)
            if row is None:
                return False
            last_id = self._id_of_row.pop()
            last = len(self._id_of_row)
            if row != last:
                self._outgoing[row] = self._outgoing[last]
                self._incoming[row] = self._incoming[last]
                self._id_of_row[row] = last_id
                self._row_of[last_id] = row
            return True

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def get(self, host_id: object) -> HostVectors:
        """Fetch one host's vectors; raises for unknown hosts."""
        with self._lock:
            try:
                row = self._row_of[host_id]
            except KeyError:
                raise ValidationError(f"unknown host {host_id!r}") from None
            return HostVectors(
                outgoing=self._outgoing[row].copy(),
                incoming=self._incoming[row].copy(),
            )

    def rows_for(self, host_ids: Sequence) -> np.ndarray:
        """Internal row indices for the given hosts (request order)."""
        try:
            return np.fromiter(
                (self._row_of[host_id] for host_id in host_ids),
                dtype=int,
                count=len(host_ids),
            )
        except KeyError as missing:
            raise ValidationError(f"unknown host {missing.args[0]!r}") from None

    def gather(
        self, host_ids: Sequence, copy: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack the hosts' vectors into ``(n, d)`` ``(X, Y)`` matrices,
        in request order.

        ``copy=False`` permits (but does not require) the result to be
        a *view* of the store's backing arrays — the fast path for
        readers that consume the rows before the store can be mutated
        again (the shard server copies them into its response frame).
        Callers that hold results across writes, or share the store
        with writer threads, must keep the default."""
        with self._lock:
            rows = self.rows_for(host_ids)
            if not copy and rows.size:
                # Contiguous ascending slab (the common case after bulk
                # seeding): slice views instead of fancy-index copies,
                # so the rows can flow to a socket with zero copies.
                # The endpoints rule out most scattered rows before the
                # full comparison.
                start = int(rows[0])
                stop = start + rows.size
                if int(rows[-1]) == stop - 1 and np.array_equal(
                    rows, np.arange(start, stop)
                ):
                    return self._outgoing[start:stop], self._incoming[start:stop]
            return self._outgoing[rows], self._incoming[rows]

    def nearest(
        self, source_out: np.ndarray, k: int, exclude: object = None
    ) -> tuple[list, np.ndarray, int]:
        """Full-scan k-nearest: the ``k`` stored hosts whose predicted
        distance ``incoming @ source_out`` is smallest.

        Args:
            source_out: the querying host's outgoing vector, ``(d,)``.
            k: number of neighbours, >= 1.
            exclude: a host id left out of the scan (the source
                itself); an id the store does not hold excludes
                nothing.

        Returns:
            ``(ids, distances, scanned)``: the winners ascending by
            distance, and how many hosts were scored (every stored
            host but ``exclude``). Equal distances come out in store
            row order.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        with self._lock:
            stored = len(self._id_of_row)
            excluded = None if exclude is None else self._row_of.get(exclude)
            skip = int(excluded is not None)
            if stored == skip:
                return [], np.zeros(0), 0
            # The stored rows are 0..n-1: one product over them, no
            # gather. Ranking one row more than asked leaves k after the
            # excluded row is dropped.
            distances = self._incoming[:stored] @ source_out
            top = top_k_ascending(distances, k + skip)
            if skip:
                top = top[top != excluded][:k]
            winners = [self._id_of_row[int(row)] for row in top]
            return winners, distances[top], stored - skip

    def export(self) -> tuple[list, np.ndarray, np.ndarray]:
        """``(ids, X, Y)`` for every stored host (bulk snapshot).

        Hosts come out in row order, which after a delete differs from
        insertion order; snapshots and ``store_digest`` do not depend
        on it. The matrices are copies of the ``n`` stored rows.
        """
        with self._lock:
            stored = len(self._id_of_row)
            return (
                list(self._id_of_row),
                self._outgoing[:stored].copy(),
                self._incoming[:stored].copy(),
            )

    def ids(self) -> list:
        """All stored identifiers."""
        with self._lock:
            return list(self._row_of)

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._row_of

    def __len__(self) -> int:
        return len(self._row_of)

    @property
    def capacity(self) -> int:
        """Allocated vector slots (grows geometrically)."""
        return self._outgoing.shape[0]
