"""The distance service facade: store + engine + cache in one object.

:class:`DistanceService` is the deployable form of a fitted IDES
model. It owns an :class:`~repro.serving.store.InMemoryVectorStore`
of host vectors, answers every query shape through a vectorized
:class:`~repro.serving.engine.QueryEngine`, memoizes point queries in
a :class:`~repro.serving.cache.PredictionCache`, and — unlike the
fit-then-lookup :class:`~repro.ides.server.InformationServer` —
supports *incremental* operation: new hosts register at any time by
solving their vectors against already-registered references (the
relaxed architecture of Section 5.2), without ever refactoring the
landmark matrix.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.diagnostics import ServiceHealth
from ..exceptions import (
    DeadlineExceededError,
    NotFittedError,
    ValidationError,
)
from ..ides.host import solve_host_vectors
from ..ides.vectors import HostVectors
from .cache import PredictionCache
from .engine import QueryEngine
from .snapshot import ServiceSnapshot, load_snapshot, save_snapshot
from .store import InMemoryVectorStore

__all__ = ["DistanceService"]


class DistanceService:
    """Online distance-query service over a fitted factored model.

    Args:
        dimension: model dimension ``d`` of the service's
            :class:`InMemoryVectorStore`.
        cache_entries: LRU capacity of the point-query cache.
        cache_ttl: cache entry lifetime in seconds (None: no expiry).
        cache_admission: point-query cache admission policy —
            ``"none"`` (insert everything) or ``"doorkeeper"``
            (frequency-gated; see
            :class:`~repro.serving.cache.PredictionCache`).
        clock: monotonic time source shared by the cache's TTL logic
            and the staleness metrics; injectable so tests advance
            time instead of sleeping.
        ridge / nonnegative / strict: solver options forwarded to
            host registration (:func:`repro.ides.solve_host_vectors`).
        sink_retry_backoff: pause in seconds before the single in-line
            retry of a failed update-sink fan-out (0 retries
            immediately).
    """

    def __init__(
        self,
        dimension: int,
        cache_entries: int = 65536,
        cache_ttl: float | None = None,
        cache_admission: str = "none",
        clock=time.monotonic,
        ridge: float = 0.0,
        nonnegative: bool = False,
        strict: bool = True,
        sink_retry_backoff: float = 0.05,
    ):
        self.store = InMemoryVectorStore(dimension)
        self.engine = QueryEngine(self.store)
        self.clock = clock
        self.cache = PredictionCache(
            max_entries=cache_entries,
            ttl=cache_ttl,
            clock=clock,
            admission=cache_admission,
        )
        self.ridge = float(ridge)
        self.nonnegative = bool(nonnegative)
        self.strict = bool(strict)
        self._landmark_ids: list = []
        self._lock = threading.RLock()
        self._updated_at: dict[object, float] = {}
        self._vectors_refreshed = 0
        self._refresh_batches = 0
        self._last_refresh_at: float | None = None
        self._write_epoch = 0
        self._deadline_rejected = 0
        self._update_sinks: list = []  # [(name, sink), ...]
        self._update_sink_failures = 0
        self._sink_failures_by_name: dict[str, int] = {}
        self._sink_last_error: dict[str, str] = {}
        self._sinks_attached = 0
        #: Pause before the single in-line retry of a failed sink call
        #: (a transient blip — a reconnect, a brief election — often
        #: clears within tens of milliseconds).
        self._sink_retry_backoff = max(0.0, float(sink_retry_backoff))

    # ------------------------------------------------------------------ #
    # construction from fitted models
    # ------------------------------------------------------------------ #

    @classmethod
    def from_vectors(
        cls,
        host_ids: Sequence,
        outgoing: np.ndarray,
        incoming: np.ndarray,
        landmark_ids: Sequence = (),
        **options: object,
    ) -> "DistanceService":
        """Build a service from dense ``(n, d)`` vector matrices.

        ``landmark_ids`` marks the subset used as the default reference
        pool for later incremental registrations.
        """
        outgoing = np.asarray(outgoing, dtype=float)
        incoming = np.asarray(incoming, dtype=float)
        if outgoing.ndim != 2 or outgoing.shape != incoming.shape:
            raise ValidationError(
                f"expected matching (n, d) matrices, got {outgoing.shape} "
                f"and {incoming.shape}"
            )
        if len(host_ids) != outgoing.shape[0]:
            raise ValidationError(
                f"got {len(host_ids)} ids for {outgoing.shape[0]} vector rows"
            )
        if len(set(host_ids)) != len(host_ids):
            raise ValidationError("host_ids contains duplicates")
        service = cls(dimension=outgoing.shape[1], **options)
        service.store.put_many(list(host_ids), outgoing, incoming)
        service._stamp(host_ids)
        service._set_landmarks(landmark_ids)
        return service

    @classmethod
    def from_ides(
        cls,
        system,
        host_ids: Sequence | None = None,
        landmark_ids: Sequence | None = None,
        **options: object,
    ) -> "DistanceService":
        """Build a service from a fitted :class:`repro.ides.IDESSystem`.

        Imports the landmark vectors and, when the system has placed
        ordinary hosts, their vectors too.

        Args:
            system: fitted IDES system (landmarks required, placed
                hosts optional).
            host_ids: identifiers for the placed ordinary hosts;
                defaults to ``"host-0" .. "host-{n-1}"``.
            landmark_ids: identifiers for the landmarks; defaults to
                the server's directory ids (``0..m-1`` unless the
                server was fitted with explicit ids).
            **options: forwarded to the constructor (cache and solver
                settings).
        """
        landmark_out, landmark_in = system.landmark_vectors()
        if landmark_ids is None:
            landmark_ids = system.server.landmark_ids
        landmark_ids = list(landmark_ids)
        if len(landmark_ids) != landmark_out.shape[0]:
            raise ValidationError(
                f"got {len(landmark_ids)} landmark ids for "
                f"{landmark_out.shape[0]} landmarks"
            )

        identifiers = landmark_ids
        outgoing, incoming = landmark_out, landmark_in
        try:
            host_out, host_in = system.host_vectors()
        except NotFittedError:
            host_out = None
        if host_out is not None:
            if host_ids is None:
                host_ids = [f"host-{i}" for i in range(host_out.shape[0])]
            host_ids = list(host_ids)
            if len(host_ids) != host_out.shape[0]:
                raise ValidationError(
                    f"got {len(host_ids)} host ids for {host_out.shape[0]} "
                    "placed hosts"
                )
            overlap = set(host_ids) & set(landmark_ids)
            if overlap:
                raise ValidationError(
                    f"host ids collide with landmark ids: {sorted(overlap)!r}"
                )
            identifiers = landmark_ids + host_ids
            outgoing = np.vstack([landmark_out, host_out])
            incoming = np.vstack([landmark_in, host_in])
        elif host_ids is not None:
            raise ValidationError(
                "host_ids given but the system has not placed hosts"
            )
        return cls.from_vectors(
            identifiers, outgoing, incoming, landmark_ids=landmark_ids, **options
        )

    @classmethod
    def from_server(cls, server, **options: object) -> "DistanceService":
        """Build a service from a fitted
        :class:`repro.ides.InformationServer` directory."""
        identifiers = server.known_hosts()
        if not identifiers:
            raise ValidationError("server has no registered hosts")
        outgoing = np.stack([server.get_vectors(i).outgoing for i in identifiers])
        incoming = np.stack([server.get_vectors(i).incoming for i in identifiers])
        return cls.from_vectors(
            identifiers,
            outgoing,
            incoming,
            landmark_ids=server.landmark_ids,
            **options,
        )

    def _set_landmarks(self, landmark_ids: Sequence) -> None:
        missing = [i for i in landmark_ids if i not in self.store]
        if missing:
            raise ValidationError(f"landmark ids not in store: {missing!r}")
        self._landmark_ids = list(landmark_ids)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    @property
    def dimension(self) -> int:
        """Model dimension ``d``."""
        return self.store.dimension

    @property
    def n_hosts(self) -> int:
        """Hosts in the store, landmarks included."""
        return len(self.store)

    @property
    def landmark_ids(self) -> list:
        """The default reference pool for incremental registration."""
        return list(self._landmark_ids)

    def known_hosts(self) -> list:
        """All registered identifiers."""
        return self.store.ids()

    def __contains__(self, host_id: object) -> bool:
        return host_id in self.store

    def _stamp(self, host_ids: Sequence) -> None:
        """Record write times for staleness metrics."""
        now = self.clock()
        with self._lock:
            for host_id in host_ids:
                self._updated_at[host_id] = now

    def register_vectors(self, host_id: object, vectors: HostVectors) -> None:
        """Publish (or overwrite) a host's solved vectors directly."""
        with self._lock:
            self.store.put(host_id, vectors)
            self.cache.invalidate_host(host_id)
            self._stamp([host_id])
            self._write_epoch += 1

    @property
    def write_epoch(self) -> int:
        """Monotonic count of vector writes and evictions.

        Cache writers capture it *before* computing a prediction and
        hand it to :meth:`cache_put_if_current`, so a value computed
        from pre-refresh vectors can never be cached after the
        refresh's invalidation already ran.
        """
        return self._write_epoch

    def cache_put_if_current(
        self,
        epoch: int,
        source_id: object,
        destination_id: object,
        value: float,
    ) -> bool:
        """Cache a prediction only if no vector write intervened.

        Returns whether the entry was stored.
        """
        with self._lock:
            if epoch != self._write_epoch:
                return False
            self.cache.put(source_id, destination_id, value)
            return True

    def cache_put_many_if_current(
        self, epoch: int, entries: Sequence[tuple]
    ) -> int:
        """Bulk :meth:`cache_put_if_current`; returns entries stored."""
        with self._lock:
            if epoch != self._write_epoch:
                return 0
            for source_id, destination_id, value in entries:
                self.cache.put(source_id, destination_id, value)
            return len(entries)

    def apply_vector_updates(
        self,
        host_ids: Sequence,
        outgoing: np.ndarray,
        incoming: np.ndarray,
    ) -> int:
        """Bulk-publish refreshed vectors for already-known hosts.

        The refresh worker's flush path: one ``put_many`` into the
        store, one bulk cache invalidation, one staleness stamp — all
        under the service lock. The store's own locking guarantees any
        single gather sees either the old or the new vectors (no torn
        rows); queries composed of several gathers may span the update
        boundary. Unlike :meth:`register_vectors` this refuses unknown
        hosts (a refresh cannot invent members), checked under the
        same lock so a racing eviction cannot be resurrected.

        Returns:
            the number of hosts updated.
        """
        host_ids = list(host_ids)
        with self._lock:
            # Membership check under the lock: a concurrent eviction
            # must not let a refresh resurrect the evicted host.
            unknown = [i for i in host_ids if i not in self.store]
            if unknown:
                raise ValidationError(
                    f"cannot refresh unregistered hosts: {unknown[:5]!r}"
                )
            self.store.put_many(host_ids, outgoing, incoming)
            self.cache.invalidate_hosts(host_ids)
            self._stamp(host_ids)
            self._vectors_refreshed += len(host_ids)
            self._refresh_batches += 1
            self._last_refresh_at = self.clock()
            self._write_epoch += 1
            sinks = list(self._update_sinks)
        # Fan-out to attached replicas happens *outside* the service
        # lock: a slow or dark remote shard must not stall the local
        # query path. Sinks are best-effort — a failure gets one
        # bounded in-line retry after a short backoff (transient blips
        # should not show up as replication lag), then is counted with
        # its reason (surfaced via health) but never rolls back the
        # local update; flushes are idempotent overwrites, so the next
        # one converges the replica.
        for name, sink in sinks:
            error: BaseException | None = None
            for attempt in (0, 1):
                if attempt and self._sink_retry_backoff:
                    time.sleep(self._sink_retry_backoff)
                try:
                    sink(host_ids, outgoing, incoming)
                    error = None
                    break
                except Exception as failed:  # noqa: BLE001 - replication
                    # must not break local serving
                    error = failed
            if error is not None:
                with self._lock:
                    self._update_sink_failures += 1
                    self._sink_failures_by_name[name] = (
                        self._sink_failures_by_name.get(name, 0) + 1
                    )
                    self._sink_last_error[name] = (
                        f"{type(error).__name__}: {error}"
                    )
        return len(host_ids)

    def add_update_sink(self, sink, name: str | None = None) -> None:
        """Attach a replication sink to the bulk-refresh path.

        ``sink(host_ids, outgoing, incoming)`` is invoked after every
        successful :meth:`apply_vector_updates`, outside the service
        lock, in registration order — the hook
        :class:`~repro.serving.transport.ShardReplicator` uses to fan
        refreshed vectors out to cross-process shard servers so a
        :class:`~repro.serving.refresh.RefreshWorker` maintains a
        whole cluster. A sink exception gets one in-line retry after
        ``sink_retry_backoff`` seconds; if that also raises, the
        failure is swallowed but counted per sink under ``name`` with
        its last reason (``update_sink_failures`` /
        ``update_sink_failures_by_sink`` / ``update_sink_last_error``
        in :meth:`health`); the default name is ``sink-{attach_index}``
        so two anonymous replicas never alias each other's failures.
        """
        with self._lock:
            if name is None:
                name = getattr(sink, "sink_name", None) or (
                    f"sink-{self._sinks_attached}"
                )
            self._sinks_attached += 1
            self._update_sinks.append((str(name), sink))

    def remove_update_sink(self, sink) -> bool:
        """Detach a replication sink; returns whether it was attached."""
        with self._lock:
            for index, (_, attached) in enumerate(self._update_sinks):
                if attached is sink:
                    del self._update_sinks[index]
                    return True
            return False

    def register_host(
        self,
        host_id: object,
        out_distances: object,
        in_distances: object | None = None,
        reference_ids: Sequence | None = None,
    ) -> HostVectors:
        """Register a new host from its reference measurements.

        Solves the host's vectors against already-registered reference
        nodes (Eqs. 13-14) — landmarks by default, but any registered
        host works (the Section 5.2 relaxation) — so registration never
        refactors the landmark matrix.

        Args:
            host_id: identifier to register under.
            out_distances: length-``k`` distances host -> reference.
            in_distances: length-``k`` distances reference -> host;
                None assumes RTT symmetry.
            reference_ids: the ``k`` reference hosts measured; defaults
                to the landmark set.

        Returns:
            the solved :class:`HostVectors` (already published).
        """
        if reference_ids is None:
            if not self._landmark_ids:
                raise ValidationError(
                    "no landmark reference pool; pass reference_ids explicitly"
                )
            reference_ids = self._landmark_ids
        reference_ids = list(reference_ids)
        if host_id in reference_ids:
            raise ValidationError(
                f"host {host_id!r} cannot use itself as a reference"
            )
        ref_out, ref_in = self.store.gather(reference_ids)
        if in_distances is None:
            in_distances = out_distances
        vectors = solve_host_vectors(
            out_distances,
            in_distances,
            ref_out,
            ref_in,
            ridge=self.ridge,
            nonnegative=self.nonnegative,
            strict=self.strict,
        )
        self.register_vectors(host_id, vectors)
        return vectors

    def evict_host(self, host_id: object) -> bool:
        """Remove an ordinary host; landmarks cannot be evicted."""
        if host_id in self._landmark_ids:
            raise ValidationError(f"cannot evict landmark {host_id!r}")
        with self._lock:
            removed = self.store.delete(host_id)
            if removed:
                self.cache.invalidate_host(host_id)
                self._updated_at.pop(host_id, None)
                self._write_epoch += 1
            return removed

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query(
        self, source_id: object, destination_id: object, deadline=None
    ) -> float:
        """Point query through the cache.

        ``deadline`` (a
        :class:`~repro.serving.transport.protocol.Deadline`) is the
        request's latency budget: an already-expired budget raises
        :class:`~repro.exceptions.DeadlineExceededError` *before* any
        engine work — answering a caller that has already given up is
        pure wasted compute. The cache probe still runs first: a free
        answer beats a shed.
        """
        cached = self.cache.get(source_id, destination_id)
        if cached is not None:
            return cached
        if deadline is not None and deadline.expired():
            self._deadline_rejected += 1
            raise DeadlineExceededError(
                "deadline expired before the query could be evaluated"
            )
        epoch = self._write_epoch
        value = self.engine.point(source_id, destination_id)
        # Epoch-guarded put: if a refresh invalidated this host while
        # we computed, the stale value must not re-enter the cache.
        self.cache_put_if_current(epoch, source_id, destination_id, value)
        return value

    def query_one_to_many(
        self,
        source_id: object,
        destination_ids: Sequence,
        populate_cache: bool = False,
    ) -> np.ndarray:
        """Vectorized distances from one source to many destinations.

        Batch reads bypass the cache lookup (a dense gather beats per
        -pair dict probes); ``populate_cache`` additionally writes the
        results back so follow-up point queries hit.
        """
        epoch = self._write_epoch
        values = self.engine.one_to_many(source_id, destination_ids)
        if populate_cache:
            self.cache_put_many_if_current(
                epoch,
                [
                    (source_id, destination_id, float(value))
                    for destination_id, value in zip(destination_ids, values)
                ],
            )
        return values

    def query_many_to_many(
        self, source_ids: Sequence, destination_ids: Sequence
    ) -> np.ndarray:
        """The ``(n_src, n_dst)`` prediction block, fully vectorized."""
        return self.engine.many_to_many(source_ids, destination_ids)

    def query_pairs(
        self, source_ids: Sequence, destination_ids: Sequence
    ) -> np.ndarray:
        """Aligned per-pair predictions in one dense batch.

        ``result[i]`` is ``source_ids[i] -> destination_ids[i]``; the
        same coalescing primitive the concurrent frontend uses, exposed
        synchronously. Bypasses the cache like the other batch reads.
        """
        return self.engine.pairs(source_ids, destination_ids)

    def k_nearest(
        self,
        source_id: object,
        k: int,
        candidate_ids: Sequence | None = None,
    ) -> list[tuple[object, float]]:
        """The ``k`` registered hosts predicted closest to the source."""
        return self.engine.k_nearest(source_id, k, candidate_ids=candidate_ids)

    # ------------------------------------------------------------------ #
    # snapshots and health
    # ------------------------------------------------------------------ #

    def snapshot(self) -> ServiceSnapshot:
        """Materialize the current directory as a snapshot object."""
        identifiers, outgoing, incoming = self.store.export()
        return ServiceSnapshot(
            ids=identifiers,
            outgoing=outgoing,
            incoming=incoming,
            landmark_ids=list(self._landmark_ids),
        )

    def save(self, path: str | Path) -> Path:
        """Write the service state to an ``.npz`` snapshot."""
        return save_snapshot(self.snapshot(), path)

    @classmethod
    def load(cls, path: str | Path, **options: object) -> "DistanceService":
        """Rebuild a service from a snapshot file; ``options`` are
        forwarded to the constructor."""
        snapshot = load_snapshot(path)
        return cls.from_vectors(
            snapshot.ids,
            snapshot.outgoing,
            snapshot.incoming,
            landmark_ids=snapshot.landmark_ids,
            **options,
        )

    def health(self) -> ServiceHealth:
        """Operational counters as a :class:`ServiceHealth` report.

        The service holds one store, so the report has ``n_shards=0``
        and no per-shard entries; a cross-process
        :meth:`~repro.serving.transport.ShardedQueryRouter.health`
        fills those from each shard server's own engine.
        """
        cache_stats = self.cache.stats()
        now = self.clock()
        with self._lock:
            stamps = list(self._updated_at.values())
            since_refresh = (
                None
                if self._last_refresh_at is None
                else now - self._last_refresh_at
            )
            vectors_refreshed = self._vectors_refreshed
            refresh_batches = self._refresh_batches
            sink_failures = self._update_sink_failures
            sink_failures_by_name = tuple(
                sorted(self._sink_failures_by_name.items())
            )
            sink_last_error = tuple(sorted(self._sink_last_error.items()))
        if stamps:
            ages = [now - stamp for stamp in stamps]
            max_age: float | None = max(ages)
            mean_age: float | None = sum(ages) / len(ages)
        else:
            max_age = mean_age = None
        return ServiceHealth(
            n_hosts=self.n_hosts,
            n_landmarks=len(self._landmark_ids),
            dimension=self.dimension,
            n_shards=0,
            shard_occupancy=(),
            queries_served=self.engine.queries_served,
            pairs_evaluated=self.engine.pairs_evaluated,
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            cache_size=cache_stats.size,
            cache_max_entries=cache_stats.max_entries,
            cache_admitted=cache_stats.admitted,
            cache_rejected=cache_stats.rejected,
            vectors_refreshed=vectors_refreshed,
            refresh_batches=refresh_batches,
            seconds_since_refresh=since_refresh,
            max_vector_age_seconds=max_age,
            mean_vector_age_seconds=mean_age,
            update_sink_failures=sink_failures,
            update_sink_failures_by_sink=sink_failures_by_name,
            update_sink_last_error=sink_last_error,
            stale_served=cache_stats.stale_reads,
            deadline_rejected=self._deadline_rejected,
        )

    def bind_metrics(self, registry, component: str = "service") -> None:
        """Register this service's counters with a metrics registry.

        Binds the engine and cache collectors under ``component`` and
        adds a service-level collector (membership gauges, refresh
        counters, per-sink replication failures). Scrape-time reads of
        the existing counters — nothing is added to the query path.
        """
        from .observability.metrics import Sample

        self.engine.bind_metrics(registry, component=component)
        self.cache.bind_metrics(registry, component=component)

        def collect():
            with self._lock:
                refreshed = self._vectors_refreshed
                batches = self._refresh_batches
                epoch = self._write_epoch
                by_sink = dict(self._sink_failures_by_name)
            label = (("component", component),)
            samples = [
                Sample("ides_service_hosts", "gauge",
                       "Hosts registered in the vector store.",
                       label, self.n_hosts),
                Sample("ides_service_landmarks", "gauge",
                       "Hosts acting as the landmark reference set.",
                       label, len(self._landmark_ids)),
                Sample("ides_service_write_epoch", "counter",
                       "Vector writes and evictions applied.",
                       label, epoch),
                Sample("ides_service_vectors_refreshed_total", "counter",
                       "Host vectors updated through the refresh path.",
                       label, refreshed),
                Sample("ides_service_refresh_batches_total", "counter",
                       "Bulk refresh flushes applied.", label, batches),
            ]
            for name, count in sorted(by_sink.items()):
                samples.append(Sample(
                    "ides_service_update_sink_failures_total", "counter",
                    "Replication sink invocations that raised.",
                    (("component", component), ("sink", name)), count,
                ))
            return samples

        registry.register_collector(collect)
