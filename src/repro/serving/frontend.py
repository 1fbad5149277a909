"""Concurrent serving frontend: micro-batched asyncio query dispatch.

:class:`AsyncDistanceFrontend` is the concurrency tier of the serving
stack. Many client coroutines submit point, one-to-many, pairs and
k-nearest queries; a single dispatcher coroutine coalesces what is
submitted in the same event-loop window into batches and fans the
results back to the awaiting callers. Each dispatch cycle sends all
its point queries as one ``pairs`` call, all its k-nearest (k-NN)
queries as one ``k_nearest_batch`` call and all its one-to-many (1:N)
queries as one ``one_to_many_batch`` call; each ``query_pairs``
request is its own ``pairs`` call.

The dispatch rule is *drain-then-dispatch*: when work arrives, the
dispatcher yields to the event loop exactly once — so every runnable
client gets to enqueue its request — then cuts a batch of up to
``max_batch`` requests and executes it immediately. It never idles
waiting for a fuller batch while callers are blocked on it. Under 64+
concurrent clients this turns thousands of individual point queries
per second into a few dense einsum batches per event-loop cycle —
``benchmarks/bench_frontend.py`` quantifies the gap against per-query
dispatch.

Failure isolation: a batch containing an unknown host does not poison
its neighbors — the dispatcher retries that batch per-request so only
the offending futures receive the exception. A request alone in its
cycle is a batch of one and is sent once.

Backends: the frontend dispatches into either a local synchronous
:class:`~repro.serving.service.DistanceService` (engine calls execute
inline on the event loop, a batch as a loop over them) or any *async
backend* exposing coroutine ``point`` / ``pairs`` /
``one_to_many_batch`` / ``k_nearest_batch`` methods — ``point`` and
``pairs`` take a ``deadline`` keyword — plus the epoch-guarded cache
surface (``cache``, a :class:`~repro.serving.cache.PredictionCache`;
``write_epoch``, ``cache_put_if_current``,
``cache_put_many_if_current``) — in practice the cross-process
:class:`~repro.serving.transport.ShardedQueryRouter`, whose
scatter-gather then overlaps network I/O across shards *within* each
coalesced batch. Client-facing semantics are identical either way.

Thread-safety contract: the frontend itself is single-loop — every
``submit``/``query`` must come from the event loop that ran
:meth:`AsyncDistanceFrontend.start`. Concurrency with refresh threads
is delegated to the backend (the service's internal locks, or the
router's single-loop discipline plus :class:`ShardReplicator`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ValidationError,
)
from .observability.metrics import Sample
from .observability.tracing import current_context, get_tracer
from .service import DistanceService

__all__ = ["AsyncDistanceFrontend", "FrontendStats"]

_POINT = 0
_PAIRS = 1
_ONE_TO_MANY = 2
_NEAREST = 3

#: Span of a k-NN or 1:N request served alone in its cycle.
_SCAN_SPANS = {_ONE_TO_MANY: "frontend:one_to_many", _NEAREST: "frontend:k_nearest"}


class _ServiceBackend:
    """Adapts a synchronous :class:`DistanceService` to the async
    backend protocol the dispatcher speaks.

    The coroutine wrappers never actually await — engine batches run
    inline on the event loop exactly as before this abstraction
    existed — so the sync path pays one coroutine frame per call and
    nothing else.
    """

    def __init__(self, service: DistanceService):
        self.service = service

    @property
    def cache(self):
        return self.service.cache

    @property
    def write_epoch(self) -> int:
        return self.service.write_epoch

    def cache_put_if_current(self, epoch, source_id, destination_id, value):
        return self.service.cache_put_if_current(
            epoch, source_id, destination_id, value
        )

    def cache_put_many_if_current(self, epoch, entries):
        return self.service.cache_put_many_if_current(epoch, entries)

    # deadline ignored: runs inline right after the frontend sheds expired work
    async def point(self, source_id, destination_id, deadline=None):
        return self.service.engine.point(source_id, destination_id)

    async def pairs(self, source_ids, destination_ids, deadline=None):
        return self.service.engine.pairs(source_ids, destination_ids)

    async def one_to_many_batch(self, source_ids, destination_ids):
        engine = self.service.engine
        return [
            engine.one_to_many(source_id, destinations)
            for source_id, destinations in zip(source_ids, destination_ids)
        ]

    async def k_nearest_batch(self, source_ids, ks, candidate_ids):
        engine = self.service.engine
        return [
            engine.k_nearest(source_id, k, candidate_ids=candidates)
            for source_id, k, candidates in zip(source_ids, ks, candidate_ids)
        ]


def _as_backend(service):
    """Wrap a DistanceService; pass async backends (routers) through."""
    if isinstance(service, DistanceService) or hasattr(service, "engine"):
        return _ServiceBackend(service)
    if asyncio.iscoroutinefunction(getattr(service, "pairs", None)):
        return service
    raise ValidationError(
        f"frontend backend {service!r} is neither a DistanceService nor an "
        "async query backend (coroutine point/pairs/one_to_many_batch/"
        "k_nearest_batch)"
    )


@dataclass(frozen=True)
class FrontendStats:
    """Counters describing the frontend's coalescing behavior.

    Attributes:
        submitted: requests accepted (cache hits included).
        completed: requests answered (exceptions included).
        cache_hits: point queries answered at submit time from the
            prediction cache, without ever entering the queue.
        batches: dispatch cycles executed.
        coalesced: requests executed through dispatch cycles.
        max_batch_seen: largest single dispatch cycle.
        point_fallbacks: requests re-sent individually because their
            multi-request batch failed.
        stale_served: point queries answered from a TTL-expired cache
            entry because the backend was overloaded (brownout).
        deadline_rejected: point queries refused at submit time
            because their deadline had already expired.
        deadline_shed: point queries dropped at dispatch time because
            their deadline expired while queued.
    """

    submitted: int
    completed: int
    cache_hits: int
    batches: int
    coalesced: int
    max_batch_seen: int
    point_fallbacks: int
    stale_served: int = 0
    deadline_rejected: int = 0
    deadline_shed: int = 0

    @property
    def mean_batch(self) -> float:
        """Average requests per dispatch cycle (0.0 before traffic)."""
        return self.coalesced / self.batches if self.batches else 0.0

    def __str__(self) -> str:
        return (
            f"submitted={self.submitted} completed={self.completed} "
            f"cache_hits={self.cache_hits} batches={self.batches} "
            f"mean_batch={self.mean_batch:.1f} max_batch={self.max_batch_seen} "
            f"fallbacks={self.point_fallbacks}"
        )


class AsyncDistanceFrontend:
    """Micro-batching asyncio frontend over a local service or a
    remote shard cluster.

    Args:
        service: the backend to dispatch into — a synchronous
            :class:`DistanceService`, or an async backend such as
            :class:`~repro.serving.transport.ShardedQueryRouter` (see
            the module docstring for the protocol).
        max_batch: largest number of requests executed in one dispatch
            cycle; overflow stays queued for the next cycle. A cycle
            never waits for more arrivals: under load the event-loop
            drain already forms large batches, and a lone request
            should not pay a latency tax.
        populate_cache: write coalesced point results back into the
            service's prediction cache (point queries always *read*
            the cache at submit time).

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        async with AsyncDistanceFrontend(service) as frontend:
            rtt = await frontend.query("h3", "h7")
    """

    def __init__(
        self,
        service: DistanceService,
        max_batch: int = 4096,
        populate_cache: bool = False,
    ):
        if int(max_batch) < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        self.service = service
        self._backend = _as_backend(service)
        self.max_batch = int(max_batch)
        self.populate_cache = bool(populate_cache)
        self._pending: list[tuple] = []
        self._in_flight: list[tuple] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wakeup: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._submitted = 0
        self._completed = 0
        self._cache_hits = 0
        self._batches = 0
        self._coalesced = 0
        self._max_batch_seen = 0
        self._point_fallbacks = 0
        self._stale_served = 0
        self._deadline_rejected = 0
        self._deadline_shed = 0
        #: Optional dispatch instruments, attached by
        #: :meth:`bind_metrics`; ``None`` keeps the loop uninstrumented.
        self._dispatch_seconds = None
        self._batch_size = None

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def bind_metrics(self, registry) -> None:
        """Expose the frontend through a metrics registry.

        The :class:`FrontendStats` counters become scrape-time
        collector samples; dispatch cycles additionally land their
        wall time and batch size in first-class histograms. The
        submit/coalesce hot path stays untouched.
        """
        self._dispatch_seconds = registry.histogram(
            "ides_frontend_dispatch_seconds",
            "Wall time of one dispatch cycle (backend execution included).",
        )
        self._batch_size = registry.histogram(
            "ides_frontend_batch_size",
            "Requests coalesced per dispatch cycle.",
            buckets=tuple(float(2**k) for k in range(14)),
        )

        def collect():
            stats = self.stats()
            return [
                Sample("ides_frontend_submitted_total", "counter",
                       "Requests submitted to the frontend.",
                       (), stats.submitted),
                Sample("ides_frontend_completed_total", "counter",
                       "Requests resolved (cache hits included).",
                       (), stats.completed),
                Sample("ides_frontend_cache_hits_total", "counter",
                       "Requests answered from the cache at submit time.",
                       (), stats.cache_hits),
                Sample("ides_frontend_batches_total", "counter",
                       "Dispatch cycles executed.", (), stats.batches),
                Sample("ides_frontend_coalesced_total", "counter",
                       "Requests that went through a dispatch batch.",
                       (), stats.coalesced),
                Sample("ides_frontend_point_fallbacks_total", "counter",
                       "Requests re-sent individually after a "
                       "multi-request batch failed.",
                       (), stats.point_fallbacks),
                Sample("ides_frontend_max_batch_seen", "gauge",
                       "Largest batch coalesced so far.",
                       (), stats.max_batch_seen),
                Sample("ides_frontend_pending", "gauge",
                       "Requests queued for the next cycle.",
                       (), len(self._pending)),
                Sample("ides_frontend_in_flight", "gauge",
                       "Requests in the executing batch.",
                       (), len(self._in_flight)),
                Sample("ides_frontend_stale_served_total", "counter",
                       "Point queries answered from a TTL-expired cache "
                       "entry during backend overload (brownout).",
                       (), stats.stale_served),
                Sample("ides_frontend_deadline_rejected_total", "counter",
                       "Point queries refused at submit: deadline "
                       "already expired.", (), stats.deadline_rejected),
                Sample("ides_frontend_deadline_shed_total", "counter",
                       "Point queries dropped at dispatch: deadline "
                       "expired while queued.", (), stats.deadline_shed),
            ]

        registry.register_collector(collect)

    # Submitter span contexts are captured into the request tuples via
    # ``current_context()`` so the dispatcher task can parent its spans
    # correctly (the dispatcher runs outside the submitter's context).

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        """Whether the dispatcher task is active."""
        return self._dispatcher is not None and not self._dispatcher.done()

    async def start(self) -> "AsyncDistanceFrontend":
        """Spawn the dispatcher task on the running event loop.

        All submissions must come from this same loop.
        """
        if self.running:
            return self
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="distance-frontend-dispatch"
        )
        return self

    async def stop(self) -> None:
        """Cancel the dispatcher; pending requests get CancelledError."""
        if self._dispatcher is None:
            return
        task, self._dispatcher = self._dispatcher, None
        self._loop = None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        # Batch execution is now a real await point (async backends do
        # network rounds), so cancellation can land mid-batch: the
        # in-flight requests' futures must be cancelled along with the
        # still-queued ones, or their callers would hang forever.
        for request in [*self._in_flight, *self._pending]:
            future = request[-1]
            if not future.done():
                future.cancel()
        self._in_flight.clear()
        self._pending.clear()

    async def __aenter__(self) -> "AsyncDistanceFrontend":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # client API
    # ------------------------------------------------------------------ #

    def _submit(self, request: tuple) -> asyncio.Future:
        pending = self._pending
        if not pending:
            self._wakeup.set()
        pending.append(request)
        self._submitted += 1
        return request[-1]

    def _future(self) -> asyncio.Future:
        loop = self._loop
        if loop is None:
            raise ReproError(
                "frontend is not running; use 'async with' or start()"
            )
        return loop.create_future()

    def submit(
        self,
        source_id: object,
        destination_id: object,
        deadline=None,
    ) -> asyncio.Future:
        """Enqueue a point query without awaiting it.

        The pipelining hook: a client that needs several distances can
        submit them all, then await the futures — every request lands
        in the same dispatch cycle. Cache hits return an
        already-resolved future without touching the queue.

        ``deadline`` (a
        :class:`~repro.serving.transport.protocol.Deadline`) is the
        request's latency budget: a budget already expired fails the
        future with :class:`~repro.exceptions.DeadlineExceededError`
        without ever enqueueing it, one that expires while the request
        waits for a dispatch cycle is shed at batch-cut time, and the
        remaining budget propagates into the backend with the
        dispatched batch.
        """
        cache = self._backend.cache
        if len(cache):  # a probe into an empty cache is pure overhead
            cached = cache.get(source_id, destination_id)
            if cached is not None:
                self._submitted += 1
                self._completed += 1
                self._cache_hits += 1
                future = self._future()
                future.set_result(cached)
                return future
        if deadline is not None and deadline.expired():
            self._submitted += 1
            self._completed += 1
            self._deadline_rejected += 1
            future = self._future()
            future.set_exception(DeadlineExceededError(
                "deadline expired before the query could be enqueued"
            ))
            return future
        return self._submit(
            (_POINT, source_id, destination_id, deadline,
             current_context(), self._future())
        )

    async def query(
        self, source_id: object, destination_id: object, deadline=None
    ) -> float:
        """Point query; coalesced with every other in-flight request."""
        return await self.submit(source_id, destination_id, deadline=deadline)

    async def query_pairs(
        self, source_ids: Sequence, destination_ids: Sequence
    ) -> np.ndarray:
        """Aligned per-pair batch; still coalesced across callers."""
        if len(source_ids) != len(destination_ids):
            raise ValidationError(
                f"query_pairs needs aligned sequences, got {len(source_ids)} "
                f"sources and {len(destination_ids)} destinations"
            )
        future = self._future()
        return await self._submit(
            (_PAIRS, list(source_ids), list(destination_ids),
             current_context(), future)
        )

    async def query_one_to_many(
        self, source_id: object, destination_ids: Sequence
    ) -> np.ndarray:
        """1:N fan-out executed inside the next dispatch cycle."""
        future = self._future()
        return await self._submit(
            (_ONE_TO_MANY, source_id, list(destination_ids),
             current_context(), future)
        )

    async def k_nearest(
        self,
        source_id: object,
        k: int,
        candidate_ids: Sequence | None = None,
    ) -> list[tuple[object, float]]:
        """k-nearest query executed inside the next dispatch cycle."""
        if candidate_ids is not None:
            # listed once: a failed batch re-sends each member alone
            candidate_ids = list(candidate_ids)
        future = self._future()
        return await self._submit(
            (_NEAREST, source_id, (k, candidate_ids),
             current_context(), future)
        )

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        wakeup = self._wakeup
        while True:
            await wakeup.wait()
            # One full pass through the event loop: every runnable
            # client enqueues before the batch is cut.
            await asyncio.sleep(0)
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            if not self._pending:
                wakeup.clear()
            if batch:
                # Deliberately NOT a try/finally: on CancelledError the
                # batch must stay in _in_flight so stop() can cancel its
                # futures; every non-cancel path clears it below.
                self._in_flight = batch
                started = time.perf_counter()
                try:
                    await self._execute(batch)
                except Exception as error:  # noqa: BLE001 - the dispatcher
                    # must survive anything: fail this batch's callers,
                    # keep serving everyone else.
                    for request in batch:
                        future = request[-1]
                        if not future.done():
                            future.set_exception(error)
                self._in_flight = []
                if self._dispatch_seconds is not None:
                    self._dispatch_seconds.observe(
                        time.perf_counter() - started
                    )
                    self._batch_size.observe(len(batch))

    async def _execute(self, batch: list[tuple]) -> None:
        self._batches += 1
        self._coalesced += len(batch)
        self._max_batch_seen = max(self._max_batch_seen, len(batch))

        groups = {_POINT: [], _PAIRS: [], _ONE_TO_MANY: [], _NEAREST: []}
        for request in batch:
            groups[request[0]].append(request)
        # Everything in the cycle runs concurrently: with an async
        # (router) backend the point batch, the k-NN batch, the 1:N
        # batch and each pairs request overlap their network rounds
        # instead of paying them serially; with a sync service backend
        # nothing actually yields, so execution order is unchanged.
        # Empty groups get no coroutine. Failure isolation lives inside
        # the tasks — none of them raises.
        work = []
        if groups[_POINT]:
            work.append(self._execute_points(groups[_POINT]))
        for kind in (_ONE_TO_MANY, _NEAREST):
            if groups[kind]:
                work.append(self._execute_scans(kind, groups[kind]))
        work.extend(self._execute_pairs(request) for request in groups[_PAIRS])
        await asyncio.gather(*work)

    def _shed_expired(self, points: list[tuple]) -> list[tuple]:
        """Drop queued requests whose budget ran out while they waited.

        Their futures fail with
        :class:`~repro.exceptions.DeadlineExceededError` *without* a
        backend round — dispatching work nobody is still waiting for
        is exactly the congestion-collapse input admission control
        exists to refuse. Requests already settled (cancelled, or
        answered before their batch raised) are dropped too.
        """
        live = []
        for request in points:
            future = request[-1]
            if future.done():
                continue
            deadline = request[3]
            if deadline is not None and deadline.expired():
                self._deadline_shed += 1
                future.set_exception(DeadlineExceededError(
                    "deadline expired while queued in the frontend"
                ))
                continue
            live.append(request)
        return live

    async def _execute_points(self, points: list[tuple]) -> None:
        """The cycle's point requests: one backend call when alone, one
        dense pairs batch otherwise."""
        live = self._shed_expired(points)
        if len(live) == 1:
            await self._resolve_point(live[0], self._backend.write_epoch)
        elif live:
            await self._execute_point_batch(live)
        self._completed += len(points)

    async def _execute_point_batch(self, live: list[tuple]) -> None:
        """Two or more point requests as one pairs call.

        When the batch raises — any bad request, an unknown or even
        unhashable host id — every member is re-sent alone, so only
        the offending futures get the exception and every other caller
        still receives its answer.
        """
        backend = self._backend
        epoch = backend.write_epoch
        # A coalesced batch propagates one wire deadline: the earliest
        # of its members' budgets, and only when every member carries
        # one — a mixed batch must not impose the strictest caller's
        # budget on the unbounded ones. (A member whose own deadline
        # passes mid-flight is caught by the per-request fallback.)
        deadlines = [r[3] for r in live]
        deadline = None
        if all(d is not None for d in deadlines):
            deadline = min(deadlines, key=lambda d: d.remaining())
        try:
            # The batch span parents on the first live submitter's
            # context: one coalesced backend round genuinely serves
            # many callers, so one span (sized) represents it rather
            # than n duplicates.
            with get_tracer().span(
                "frontend:batch", parent=live[0][4],
                attributes={"size": len(live)},
            ):
                values = (await backend.pairs(
                    [r[1] for r in live], [r[2] for r in live],
                    deadline=deadline,
                )).tolist()
            for (*_request, future), value in zip(live, values):
                if not future.cancelled():
                    future.set_result(value)
            if self.populate_cache:
                # Epoch-guarded: a refresh flush racing this batch must
                # not see its invalidation undone by these writes.
                backend.cache_put_many_if_current(
                    epoch,
                    [(r[1], r[2], v) for r, v in zip(live, values)],
                )
        except Exception:  # noqa: BLE001 - fall back to per-request fate
            for request in live:
                # Shed per request: earlier re-sends spend later budgets.
                if self._shed_expired([request]):
                    self._point_fallbacks += 1
                    await self._resolve_point(request, epoch)

    async def _resolve_point(self, request: tuple, epoch: int) -> None:
        """Send one point request once and settle its future in place.

        This is also the brownout tier: a request the backend refuses
        with :class:`~repro.exceptions.OverloadedError` is answered
        from the prediction cache's TTL-expired remains when possible —
        marked :class:`~repro.serving.cache.StalePrediction` — instead
        of failing outright. Any other error fails this future only.
        """
        _, source_id, destination_id, deadline, context, future = request
        backend = self._backend
        try:
            with get_tracer().span("frontend:point", parent=context):
                value = await backend.point(
                    source_id, destination_id, deadline=deadline
                )
        except OverloadedError as saturated:
            stale = backend.cache.get_stale(source_id, destination_id)
            if stale is None:
                if not future.done():
                    future.set_exception(saturated)
            else:
                self._stale_served += 1
                if not future.done():
                    future.set_result(stale)
        except Exception as error:  # noqa: BLE001 - per-request fate
            if not future.done():
                future.set_exception(error)
        else:
            if not future.done():
                future.set_result(value)
            if self.populate_cache:
                backend.cache_put_if_current(
                    epoch, source_id, destination_id, value
                )

    async def _execute_pairs(self, request: tuple) -> None:
        """One ``query_pairs`` request: its own backend ``pairs`` call."""
        _, sources, destinations, context, future = request
        self._completed += 1
        if future.cancelled():
            return
        try:
            with get_tracer().span("frontend:pairs", parent=context):
                result = await self._backend.pairs(sources, destinations)
        except Exception as error:  # noqa: BLE001 - per-request fate
            if not future.done():
                future.set_exception(error)
        else:
            if not future.done():
                future.set_result(result)

    async def _execute_scans(self, kind: int, requests: list[tuple]) -> None:
        """The cycle's k-NN (or 1:N) requests: one backend batch call.

        A request alone in its cycle is a batch of one under its own
        ``frontend:k_nearest`` / ``frontend:one_to_many`` span. Two or
        more run inside one sized ``frontend:batch`` span, and when
        that batch raises every member is re-sent alone, the re-sends
        side by side, so only the offending futures get the exception
        and the cycle pays one extra round, not one per member.
        """
        self._completed += len(requests)
        live = [request for request in requests if not request[-1].done()]
        if not live:
            return
        if len(live) == 1:
            await self._resolve_scan(kind, live[0])
            return
        try:
            with get_tracer().span(
                "frontend:batch", parent=live[0][3],
                attributes={"size": len(live)},
            ):
                results = await self._scan_batch(kind, live)
        except Exception:  # noqa: BLE001 - fall back to per-request fate
            retry = [request for request in live if not request[-1].done()]
            self._point_fallbacks += len(retry)
            await asyncio.gather(
                *(self._resolve_scan(kind, request) for request in retry)
            )
            return
        for request, result in zip(live, results):
            future = request[-1]
            if not future.done():
                future.set_result(result)

    async def _resolve_scan(self, kind: int, request: tuple) -> None:
        """Send one k-NN or 1:N request as a batch of one and settle its
        future in place."""
        future = request[-1]
        try:
            with get_tracer().span(_SCAN_SPANS[kind], parent=request[3]):
                [result] = await self._scan_batch(kind, [request])
        except Exception as error:  # noqa: BLE001 - per-request fate
            if not future.done():
                future.set_exception(error)
        else:
            if not future.done():
                future.set_result(result)

    def _scan_batch(self, kind: int, requests: list[tuple]):
        """The backend batch call answering ``requests``, all of ``kind``."""
        sources = [request[1] for request in requests]
        if kind == _ONE_TO_MANY:
            return self._backend.one_to_many_batch(
                sources, [request[2] for request in requests]
            )
        return self._backend.k_nearest_batch(
            sources,
            [request[2][0] for request in requests],
            [request[2][1] for request in requests],
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> FrontendStats:
        """Snapshot of the coalescing counters."""
        return FrontendStats(
            submitted=self._submitted,
            completed=self._completed,
            cache_hits=self._cache_hits,
            batches=self._batches,
            coalesced=self._coalesced,
            max_batch_seen=self._max_batch_seen,
            point_fallbacks=self._point_fallbacks,
            stale_served=self._stale_served,
            deadline_rejected=self._deadline_rejected,
            deadline_shed=self._deadline_shed,
        )
