"""The shard client: multiplexed, pipelined RPC connections to one shard.

:class:`RemoteShardClient` owns a small pool of TCP connections to one
:class:`~repro.serving.transport.server.ShardServer`. Every connection
is **pipelined**: it is an :class:`asyncio.Protocol` whose
``data_received`` parses response frames and resolves each caller's
future by request id, so a single socket carries up to
``max_in_flight`` concurrent RPCs and the pool multiplies that. A call
on an open connection with a free slot writes its frame with one
``transport.write`` and awaits its future: no task, and no event-loop
turn beyond the response's own.

``max_in_flight`` is a hard admission bound: a caller beyond it waits
on the connection's slot semaphore instead of piling more request ids
onto the socket. Each attempt has one timeout budget over the dial,
the slot wait, the wait for a paused transport (the server is not
reading) and the response; the response's share is a loop timer on
its future, not a task. A call that times out leaves its request
outstanding on the server, so its request id is **quarantined** —
skipped by the id counter — until the late response arrives and is
dropped; a wrapped counter can therefore never deliver an old answer
to a new caller.

Failure policy: every operation in the wire vocabulary is idempotent
(queries are pure; ``put``/``update``/``delete`` overwrite), so a call
that dies on a connection error or times out is retried on a *fresh*
connection up to ``retries`` times with linear backoff. When the
budget is exhausted the call raises
:class:`~repro.exceptions.ShardUnavailableError` — the signal the
router uses to mark the shard dark. An error *frame* from a live
server is not retried: it is mapped back onto the local exception
hierarchy (``ValidationError`` for bad requests, ``ProtocolError`` for
framing complaints, :class:`~repro.exceptions.RemoteShardError`
otherwise) and raised immediately.

Shutdown discipline: :meth:`RemoteShardClient.close` fails every
in-flight pipelined call *immediately* with
:class:`ShardUnavailableError` — callers must never hang until their
timeout because the process is tearing down (the frontend's ``stop()``
relies on this). A connection whose peer dies mid-pipeline rejects
every pending future exactly once, in ``connection_lost``.
"""

from __future__ import annotations

import asyncio
import random
import time

import numpy as np

from ..observability.metrics import Sample
from ..observability.tracing import TRACE_FIELD, get_tracer
from ...exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    RemoteShardError,
    ShardUnavailableError,
    TransportError,
    ValidationError,
)
from .protocol import (
    DEADLINE_FIELD,
    MAX_REQUEST_ID,
    Deadline,
    FrameReader,
    Message,
    encode_frame,
)

__all__ = ["RemoteShardClient", "RetryBudget"]

#: Error-frame names mapped back onto local exception types. Anything
#: else arrives as RemoteShardError carrying the remote type name.
_ERROR_TYPES = {
    "ValidationError": ValidationError,
    "ProtocolError": ProtocolError,
    "DeadlineExceededError": DeadlineExceededError,
}

#: Decorrelated-jitter backoff never sleeps longer than this multiple
#: of the base backoff, however many attempts have failed.
_BACKOFF_CAP_FACTOR = 32.0

#: The floor for a deadline-derived per-attempt timeout: a budget this
#: small is as good as expired, but a zero timeout would fail the
#: attempt before its frame is even written.
_MIN_ATTEMPT_TIMEOUT = 1e-3


class RetryBudget:
    """Token bucket bounding retries across a client (or client pool).

    Every successful call deposits ``per_call`` tokens (capped at
    ``max_tokens``); every retry attempt withdraws one. When the bucket
    is empty, retries **fail fast** instead of amplifying: a shard that
    times out for every caller at once would otherwise multiply the
    offered load by ``1 + retries`` exactly when it can least afford
    it. One budget can be shared by several clients (the replica
    group's siblings target the same slice of capacity) by passing the
    same instance to each.
    """

    def __init__(self, max_tokens: float = 10.0, per_call: float = 0.1):
        if max_tokens <= 0:
            raise ValidationError(
                f"max_tokens must be > 0, got {max_tokens}"
            )
        if per_call < 0:
            raise ValidationError(f"per_call must be >= 0, got {per_call}")
        self.max_tokens = float(max_tokens)
        self.per_call = float(per_call)
        self._tokens = float(max_tokens)
        #: Retry attempts refused because the bucket was empty.
        self.exhausted = 0

    @property
    def tokens(self) -> float:
        """Tokens currently available."""
        return self._tokens

    def record_success(self) -> None:
        """Deposit the per-call earn for a successful request."""
        self._tokens = min(self.max_tokens, self._tokens + self.per_call)

    def spend(self) -> bool:
        """Withdraw one token for a retry; False means refused."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.exhausted += 1
        return False


def _replica(failure: BaseException) -> Exception:
    """A fresh exception of the same flavor, safe to set on many futures."""
    if isinstance(failure, ShardUnavailableError):
        # The clone must keep shard_index: callers use it to report
        # which partition of the directory went dark.
        return ShardUnavailableError(
            str(failure), shard_index=failure.shard_index
        )
    try:
        clone = type(failure)(str(failure))
        if isinstance(clone, Exception):
            return clone
    except Exception:  # noqa: BLE001 - exotic constructor signature
        pass
    return ConnectionResetError(str(failure))


def _expire(future: asyncio.Future) -> None:
    """An attempt's timer: fail a future still waiting with a timeout."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class _ShardConnection(asyncio.Protocol):
    """One pipelined socket: ``data_received`` resolves request-id futures."""

    def __init__(self, max_in_flight: int, on_late_response=None):
        self.transport: asyncio.Transport | None = None
        self.max_in_flight = max_in_flight
        self._on_late_response = on_late_response
        self.broken = False
        self._frames = FrameReader()
        self._pending: dict[int, asyncio.Future] = {}
        #: Request ids whose callers gave up (timeout/cancellation)
        #: while the request was still outstanding on the server. They
        #: stay quarantined — never reissued — until the late response
        #: arrives and is dropped, so a wrapped id counter can never
        #: deliver an old answer to a new caller.
        self._abandoned: set[int] = set()
        self._next_id = 0
        #: Admitted calls (in flight or waiting for a slot) — the
        #: pool's load-balancing signal.
        self._load = 0
        #: Hard admission bound: a caller beyond ``max_in_flight``
        #: waits here for a slot instead of piling another request id
        #: onto the connection.
        self._slots = asyncio.Semaphore(max_in_flight)
        #: While the transport is paused (the server is not reading),
        #: callers wait in ``_write_waiters`` instead of adding frames.
        self._write_paused = False
        self._write_waiters: list[asyncio.Future] = []

    @property
    def in_flight(self) -> int:
        """Calls awaiting a response on this socket."""
        return len(self._pending)

    @property
    def load(self) -> int:
        """Admitted calls: in flight plus waiting for a pipeline slot."""
        return self._load

    @property
    def saturated(self) -> bool:
        """Whether another call should prefer a different connection."""
        return self._load >= self.max_in_flight

    # ------------------------------------------------------------------ #
    # protocol callbacks: the demultiplexer and flow control
    # ------------------------------------------------------------------ #

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self._frames.feed(data)
        try:
            response = self._frames.next_message()
            while response is not None:
                future = self._pending.pop(response.request_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
                else:
                    # The late answer to a call whose caller gave up,
                    # or an id this client never issued: drop the
                    # frame, lift the id's quarantine (it is now safe to
                    # reissue), and let the client count it.
                    self._abandoned.discard(response.request_id)
                    if self._on_late_response is not None:
                        self._on_late_response()
                response = self._frames.next_message()
        except ProtocolError as broken:
            self.close(broken)

    def connection_lost(self, exc: Exception | None) -> None:
        self.broken = True
        self._fail_pending(
            exc
            if exc is not None
            else ConnectionResetError(
                "server closed the connection with calls in flight"
            )
        )

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake_writers()

    def _wake_writers(self) -> None:
        waiters, self._write_waiters = self._write_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def _fail_pending(self, failure: BaseException) -> None:
        """Reject every in-flight call exactly once."""
        pending, self._pending = self._pending, {}
        # A dead connection receives no more frames, so no quarantined
        # id can ever be confused with a reissue again.
        self._abandoned.clear()
        for future in pending.values():
            if not future.done():
                future.set_exception(_replica(failure))
        # Callers waiting to write are among the rejected: wake them.
        self._wake_writers()

    def _claim_id(self) -> int:
        """A request id that is neither in flight nor quarantined.

        The admission semaphore keeps in-flight ids at or below
        ``max_in_flight``, but quarantined ids of timed-out calls can
        accumulate while the server sits on their responses; a
        connection that runs entirely out of ids raises
        :class:`TransportError`, which the client retries on a fresh
        connection (whose id space is empty).
        """
        for _ in range(MAX_REQUEST_ID + 1):
            self._next_id = (self._next_id + 1) & MAX_REQUEST_ID
            if (
                self._next_id not in self._pending
                and self._next_id not in self._abandoned
            ):
                return self._next_id
        raise TransportError(
            f"no free request id: {MAX_REQUEST_ID + 1} RPCs in flight "
            "or quarantined on one connection"
        )

    # ------------------------------------------------------------------ #
    # one RPC
    # ------------------------------------------------------------------ #

    async def call(
        self,
        request: dict,
        arrays: dict[str, np.ndarray] | None,
        expires_at: float,
    ) -> Message:
        """Write one request frame and await its response frame.

        ``expires_at`` (event-loop time) bounds the whole call: the
        wait for a slot, for a paused transport, and for the response,
        which a loop timer fails with :class:`asyncio.TimeoutError`.
        """
        loop = asyncio.get_running_loop()
        self._load += 1
        try:
            if self._slots.locked():
                await asyncio.wait_for(
                    self._slots.acquire(), expires_at - loop.time()
                )
            else:
                await self._slots.acquire()  # returns without yielding
            try:
                if self.broken:
                    # The connection died while this caller waited for
                    # a slot: fail retriably instead of hanging.
                    raise ConnectionResetError(
                        "connection closed while waiting for a pipeline slot"
                    )
                request_id = self._claim_id()
                # Encoding fails only this call: nothing is registered
                # or written yet. A field JSON cannot encode is the
                # caller's bad input; an encode-time ProtocolError (a
                # reserved key, a non-wire dtype) stays one.
                try:
                    frame = encode_frame(request, arrays, request_id)
                except (TypeError, ValueError) as unencodable:
                    raise ValidationError(
                        f"cannot encode {request.get('op')!r} request: "
                        f"{unencodable}"
                    ) from None
                future = loop.create_future()
                self._pending[request_id] = future
                sent = False
                try:
                    while self._write_paused and not future.done():
                        await self._writable(loop, expires_at)
                    if not future.done():
                        self.transport.write(frame)
                        sent = True
                    timer = loop.call_at(expires_at, _expire, future)
                    try:
                        return await future
                    finally:
                        timer.cancel()
                finally:
                    # A timeout or cancellation lands here with the id
                    # still registered. A request on the wire is still
                    # outstanding on the server, so its id is
                    # quarantined until the late response arrives; an
                    # unsent one frees its id at once.
                    if self._pending.pop(request_id, None) is not None:
                        if sent and not self.broken:
                            self._abandoned.add(request_id)
            finally:
                self._slots.release()
        finally:
            self._load -= 1

    async def _writable(self, loop, expires_at: float) -> None:
        """Wait, within the budget, for the transport to resume writing
        (or for the connection to fail)."""
        waiter = loop.create_future()
        self._write_waiters.append(waiter)
        timer = loop.call_at(expires_at, _expire, waiter)
        try:
            await waiter
        finally:
            timer.cancel()

    def close(self, failure: BaseException | None = None) -> None:
        """Tear the socket down; pending calls get ``failure`` (or a
        connection reset) exactly once."""
        self.broken = True
        self._fail_pending(
            failure
            if failure is not None
            else ConnectionResetError("connection closed")
        )
        if self.transport is not None:
            self.transport.close()


class RemoteShardClient:
    """Pipelined connection pool speaking the shard wire protocol.

    Args:
        host / port: the shard server's address.
        shard_index: the shard slot this client expects to find there
            (attached to unavailability errors; verified by the
            router's handshake, not here).
        pool_size: maximum concurrent connections. Each connection
            multiplexes up to ``max_in_flight`` RPCs, so total
            concurrency is ``pool_size * max_in_flight``.
        timeout: seconds allowed per attempt (connect + write + read).
            A per-call deadline tightens this: each attempt gets
            ``min(timeout, deadline.remaining())``.
        retries: additional attempts after the first failure.
        retry_backoff: the *base* of the decorrelated-jitter backoff.
            Retry ``n`` sleeps a uniform draw from ``[base, 3 * last]``
            (capped at 32x the base), so pooled clients retrying a
            restarted shard spread out instead of synchronizing into
            bursts the way the old deterministic ``n * base`` ramp did.
        max_in_flight: pipeline depth per connection — a hard
            admission bound; excess concurrent callers wait for a slot.
        retry_budget: a :class:`RetryBudget` bounding retries across
            the pool; pass a shared instance to pool the budget across
            several clients (e.g. a replica group's siblings). None
            builds a private default bucket.
    """

    def __init__(
        self,
        host: str,
        port: int,
        shard_index: int | None = None,
        pool_size: int = 4,
        timeout: float = 10.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
        max_in_flight: int = 128,
        retry_budget: RetryBudget | None = None,
    ):
        if int(pool_size) < 1:
            raise ValidationError(f"pool_size must be >= 1, got {pool_size}")
        if timeout <= 0:
            raise ValidationError(f"timeout must be > 0, got {timeout}")
        if int(retries) < 0:
            raise ValidationError(f"retries must be >= 0, got {retries}")
        if int(max_in_flight) < 1:
            raise ValidationError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.host = host
        self.port = int(port)
        self.shard_index = shard_index
        self.pool_size = int(pool_size)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.max_in_flight = int(max_in_flight)
        self._dialing: asyncio.Lock | None = None
        self._connections: list[_ShardConnection] = []
        self._closed = False
        self.retry_budget = (
            retry_budget if retry_budget is not None else RetryBudget()
        )
        self._backoff_rng = random.Random()
        self.calls = 0
        #: Dispatch attempts (first tries plus retries) that actually
        #: went to the wire — the retry-storm observable.
        self.attempts = 0
        self.retries_used = 0
        #: Retries refused because the shared retry budget ran dry.
        self.retry_budget_exhausted = 0
        #: Calls rejected before any dispatch because their deadline
        #: had already expired (never cost the server anything).
        self.deadline_preempted = 0
        #: Responses that arrived after their caller timed out and
        #: abandoned the request id (dropped, but visible telemetry).
        self.late_responses = 0
        #: Attempts that expired the per-attempt timeout (a subset of
        #: the retriable failures behind ``retries_used``).
        self.timeouts = 0
        #: Optional first-class RPC latency histogram, attached by
        #: :meth:`bind_metrics`; ``None`` keeps the hot path untouched.
        self._rpc_seconds = None
        self._rpc_children: dict[str, object] = {}  # op -> histogram child
        self._span_names: dict[str, str] = {}  # op -> "rpc:{op}"
        self._shard_label = (
            str(shard_index) if shard_index is not None else self.address
        )
        self._span_attributes = {
            "shard": self._shard_label,
            "address": self.address,
        }

    @property
    def address(self) -> str:
        """``host:port`` for messages and health reports."""
        return f"{self.host}:{self.port}"

    @property
    def open_connections(self) -> int:
        """Live sockets currently owned by the pool."""
        return sum(1 for c in self._connections if not c.broken)

    @property
    def in_flight(self) -> int:
        """RPCs currently awaiting responses across the pool."""
        return sum(c.in_flight for c in self._connections)

    @property
    def quarantined_ids(self) -> int:
        """Request ids of timed-out calls still awaiting late responses."""
        return sum(len(c._abandoned) for c in self._connections)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def bind_metrics(self, registry) -> None:
        """Expose this client through a metrics registry.

        The existing telemetry counters (``calls``, ``retries_used``,
        ``late_responses``, ``timeouts``) and pool gauges become
        scrape-time collector samples labeled by shard, and a
        first-class ``ides_client_rpc_seconds`` histogram starts
        observing per-RPC latency. Unbound clients pay nothing.
        """
        self._rpc_seconds = registry.histogram(
            "ides_client_rpc_seconds",
            "Shard RPC latency as seen by the client, retries included.",
            labels=("op", "shard"),
        )
        shard = (("shard", self._shard_label),)

        def collect():
            return [
                Sample("ides_client_rpcs_total", "counter",
                       "Completed shard RPCs.", shard, self.calls),
                Sample("ides_client_retries_total", "counter",
                       "Retry attempts spent on fresh connections.",
                       shard, self.retries_used),
                Sample("ides_client_timeouts_total", "counter",
                       "Per-attempt timeouts.", shard, self.timeouts),
                Sample("ides_client_late_responses_total", "counter",
                       "Responses that arrived after their caller gave up.",
                       shard, self.late_responses),
                Sample("ides_client_attempts_total", "counter",
                       "Dispatch attempts, first tries plus retries.",
                       shard, self.attempts),
                Sample("ides_client_retry_budget_exhausted_total", "counter",
                       "Retries refused because the token bucket ran dry.",
                       shard, self.retry_budget_exhausted),
                Sample("ides_client_deadline_preempted_total", "counter",
                       "Calls rejected client-side on an expired deadline.",
                       shard, self.deadline_preempted),
                Sample("ides_client_in_flight", "gauge",
                       "RPCs awaiting responses across the pool.",
                       shard, self.in_flight),
                Sample("ides_client_open_connections", "gauge",
                       "Live pooled sockets.", shard, self.open_connections),
                Sample("ides_client_quarantined_ids", "gauge",
                       "Request ids quarantined until late responses land.",
                       shard, self.quarantined_ids),
            ]

        registry.register_collector(collect)

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #

    async def _dial(self) -> _ShardConnection:
        self._check_open()
        _, connection = await asyncio.get_running_loop().create_connection(
            lambda: _ShardConnection(
                self.max_in_flight, on_late_response=self._note_late_response
            ),
            self.host,
            self.port,
        )
        if self._closed:
            # close() ran while the socket was connecting: it cannot
            # have seen this connection, so tear it down here.
            connection.close()
            self._check_open()
        self._connections.append(connection)
        return connection

    def _check_open(self) -> None:
        if self._closed:
            raise ShardUnavailableError(
                f"shard client for {self.address} is closed",
                shard_index=self.shard_index,
            )

    def _note_late_response(self) -> None:
        self.late_responses += 1

    def _prune(self) -> None:
        self._connections = [c for c in self._connections if not c.broken]

    def _retire_surplus(self, keep: _ShardConnection) -> None:
        """Close idle connections beyond ``pool_size`` (newest-kept).

        Busy connections are left alone — closing them would reject
        their in-flight calls — so the pool can transiently exceed its
        cap, but only by sockets that still carry work.
        """
        surplus = len(self._connections) - self.pool_size
        if surplus <= 0:
            return
        for connection in list(self._connections):
            if surplus <= 0:
                break
            if connection is keep or connection.load:
                continue
            connection.close()
            self._connections.remove(connection)
            surplus -= 1

    def _least_loaded(self) -> _ShardConnection | None:
        """The least-loaded open socket with a free slot, if any."""
        self._prune()
        candidates = [c for c in self._connections if not c.saturated]
        if candidates:
            return min(candidates, key=lambda c: c.load)
        return None

    async def _connection(self, fresh: bool) -> _ShardConnection:
        """A connection when no pooled socket has a free slot: a new
        dial, or a queue on the least-loaded socket.

        ``fresh`` (retry attempts) never reuses a pooled socket — after
        a server restart every one of them may be dead, and each broken
        socket announces itself only when touched.
        """
        if fresh:
            # Retry semantics: never reuse a possibly-stale socket. The
            # dial can push the pool past its cap (the stale sockets it
            # distrusts may turn out healthy), so retire idle surplus
            # afterwards or repeated timeouts would leak sockets.
            self._prune()
            connection = await self._dial()
            self._retire_surplus(keep=connection)
            return connection
        # Serialize dials: a burst of first calls must share the one
        # socket the first of them opens, not race the pool cap.
        if self._dialing is None:
            self._dialing = asyncio.Lock()
        async with self._dialing:
            connection = self._least_loaded()
            if connection is not None:
                return connection
            if len(self._connections) < self.pool_size:
                return await self._dial()
        # Every socket is saturated and the pool is at its cap: queue
        # on the least-loaded one — admission is still bounded, because
        # the connection's slot semaphore holds the excess caller back
        # until a slot frees up.
        if self._connections:
            return min(self._connections, key=lambda c: c.load)
        return await self._dial()

    async def close(self) -> None:
        """Close every connection; in-flight pipelined calls fail fast
        with :class:`ShardUnavailableError` instead of hanging until
        their timeout."""
        self._closed = True
        failure = ShardUnavailableError(
            f"shard client for {self.address} was closed with calls in "
            "flight",
            shard_index=self.shard_index,
        )
        connections, self._connections = self._connections, []
        for connection in connections:
            connection.close(failure)

    # ------------------------------------------------------------------ #
    # the RPC
    # ------------------------------------------------------------------ #

    async def call(
        self,
        op: str,
        fields: dict | None = None,
        arrays: dict[str, np.ndarray] | None = None,
        deadline: Deadline | None = None,
    ) -> Message:
        """One pipelined request/response exchange, with retries.

        Returns the response :class:`Message` (its ``ok`` field
        stripped). Raises the mapped remote exception for error frames
        and :class:`ShardUnavailableError` when the shard cannot be
        reached within the retry budget (or the client was closed).

        ``deadline`` bounds the whole call: an already-expired budget
        raises :class:`DeadlineExceededError` without dispatching
        anything, each attempt's timeout shrinks to the remaining
        budget, and the budget rides the request header's optional
        deadline field so the server can shed the request if it
        expires while queued over there.

        When tracing is enabled the RPC runs inside an ``rpc:{op}``
        span whose context rides the request header's optional
        ``"trace"`` field (the header is rebuilt per call — the shared
        retry dict is never mutated); when :meth:`bind_metrics` has
        attached a registry the RPC latency lands in the
        ``ides_client_rpc_seconds`` histogram. With neither configured
        this method is exactly the uninstrumented fast path.
        """
        request = {"op": op, **(fields or {})}
        tracer = get_tracer()
        if not tracer.enabled and self._rpc_seconds is None:
            return await self._call_with_retries(request, arrays, deadline)
        name = self._span_names.get(op)
        if name is None:
            name = self._span_names[op] = f"rpc:{op}"
        with tracer.span(name, attributes=self._span_attributes):
            context = tracer.current()
            if context is not None:
                request = {**request, TRACE_FIELD: context.header()}
            started = time.perf_counter()
            try:
                return await self._call_with_retries(request, arrays, deadline)
            finally:
                if self._rpc_seconds is not None:
                    child = self._rpc_children.get(op)
                    if child is None:
                        child = self._rpc_children[op] = (
                            self._rpc_seconds.labels(
                                op=op, shard=self._shard_label
                            )
                        )
                    child.observe(time.perf_counter() - started)

    def _expired(self) -> DeadlineExceededError:
        self.deadline_preempted += 1
        return DeadlineExceededError(
            f"deadline expired before shard at {self.address} could be "
            "dispatched"
        )

    async def _call_with_retries(
        self,
        request: dict,
        arrays: dict[str, np.ndarray] | None,
        deadline: Deadline | None = None,
    ) -> Message:
        failure: Exception | None = None
        backoff = self.retry_backoff
        tried = 0
        budget_refused = False
        for attempt in range(self.retries + 1):
            self._check_open()
            if attempt:
                # Retries draw on the pool-shared token bucket: when a
                # shard times out for everyone at once, amplifying the
                # offered load by 1 + retries is exactly wrong, so
                # beyond the budget the call fails fast with its last
                # transport failure instead.
                if not self.retry_budget.spend():
                    self.retry_budget_exhausted += 1
                    budget_refused = True
                    break
                self.retries_used += 1
                # Decorrelated jitter: each sleep is a uniform draw
                # seeded by the previous one, so pooled connections
                # retrying a restarted shard spread out instead of
                # marching in lockstep.
                backoff = self._backoff_rng.uniform(
                    self.retry_backoff,
                    min(3.0 * backoff, _BACKOFF_CAP_FACTOR * self.retry_backoff),
                )
                await asyncio.sleep(backoff)
            if deadline is None:
                attempt_request = request
                attempt_timeout = self.timeout
            else:
                if deadline.expired():
                    raise self._expired() from failure
                # The remaining budget rides the wire (so the server
                # can shed a request that expires in its queue) and
                # tightens this attempt's timeout.
                attempt_request = {
                    **request, DEADLINE_FIELD: deadline.header_value()
                }
                attempt_timeout = max(
                    min(self.timeout, deadline.remaining()),
                    _MIN_ATTEMPT_TIMEOUT,
                )
            self.attempts += 1
            tried += 1
            try:
                response = await self._call_once(
                    attempt_request, arrays, attempt > 0, attempt_timeout
                )
            except ShardUnavailableError:
                # close() rejected the in-flight future: fail fast, the
                # retry budget does not apply to a deliberate shutdown.
                raise
            except (
                ProtocolError,
                RemoteShardError,
                DeadlineExceededError,
                OverloadedError,
            ):
                # Framing violations are server bugs, error frames come
                # from a *live* server, and deadline/overload verdicts
                # only get more true with time: never retriable. All
                # are TransportErrors, so they must be re-raised before
                # the retriable clause below.
                raise
            except (
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                TransportError,
            ) as broken:
                # TransportError covers connection-local exhaustion
                # (e.g. no free request id): retried on a fresh socket,
                # mapped to ShardUnavailableError when the budget runs
                # out — never surfaced raw.
                if isinstance(broken, asyncio.TimeoutError):
                    self.timeouts += 1
                failure = broken
                continue
            self.calls += 1
            self.retry_budget.record_success()
            return self._unwrap(response)
        if deadline is not None and deadline.expired():
            raise self._expired() from failure
        reason = type(failure).__name__ if failure is not None else "failure"
        budget = " with the retry budget exhausted" if budget_refused else ""
        raise ShardUnavailableError(
            f"shard at {self.address} unreachable after "
            f"{tried} attempts{budget} ({reason}: {failure})",
            shard_index=self.shard_index,
        )

    async def _call_once(
        self,
        request: dict,
        arrays: dict[str, np.ndarray] | None,
        fresh: bool,
        timeout: float,
    ) -> Message:
        """One attempt, bounded by ``timeout`` seconds from now over the
        dial, the slot wait, the write wait and the response."""
        loop = asyncio.get_running_loop()
        expires_at = loop.time() + timeout
        connection = None if fresh else self._least_loaded()
        if connection is None:
            connection = await asyncio.wait_for(
                self._connection(fresh), timeout
            )
        return await connection.call(request, arrays, expires_at)

    def _unwrap(self, response: Message) -> Message:
        if response.fields.get("ok"):
            # The decoded frame belongs to this caller alone: strip its
            # "ok" in place.
            del response.fields["ok"]
            return response
        error_type = str(response.fields.get("error", "RemoteShardError"))
        message = str(response.fields.get("message", "unspecified remote error"))
        if error_type == "OverloadedError":
            # The admission rejection carries the server's retry_after
            # hint as a header field; keep it on the local exception so
            # callers (and the replica group) can honor it.
            try:
                retry_after = float(response.fields.get("retry_after"))
            except (TypeError, ValueError):
                retry_after = None
            raise OverloadedError(
                f"{message} (from shard at {self.address})",
                retry_after=retry_after,
            )
        raised = _ERROR_TYPES.get(error_type)
        if raised is not None:
            raise raised(f"{message} (from shard at {self.address})")
        raise RemoteShardError(
            f"{error_type}: {message} (from shard at {self.address})"
        )
