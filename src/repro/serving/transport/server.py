"""The shard server: one vector-store partition behind a socket.

A :class:`ShardServer` is the process-level unit of a distributed
deployment: it owns exactly one
:class:`~repro.serving.store.InMemoryVectorStore` (the hosts whose
``shard_of(host_id, n_shards)`` equals its ``shard_index``) plus a
local :class:`~repro.serving.engine.QueryEngine`, and answers the RPC
vocabulary of ``docs/wire-protocol.md`` over length-prefixed frames.

Every connection is an :class:`asyncio.Protocol` that parses frames as
bytes arrive. The callback that decoded a burst of frames first admits
them all (so the whole burst counts toward ``max_inflight``), then
answers them: the deadline check, the handler, the encode and one
``transport.write`` run back to back, with no task and no await, so
only the server's own event loop writes its store and every store
mutation is atomic. The vector-carrying handlers gather row *views*
out of the store (``InMemoryVectorStore.gather(copy=False)``), and the
codec copies them into the frame before the callback returns, so no
response aliases store rows once it is queued. With ``work_delay``
the answer waits on a loop timer instead: requests **pipeline** (their
delays overlap) and responses may return out of order, each echoing
its request id. Per-request isolation holds: a failing handler
produces an error frame for its own request id and nothing else.

Two bounds hold per connection. At ``max_pipeline`` admitted but
unanswered requests the connection stops reading; and when the peer
stops reading (the transport pauses writing) it stops answering and
reading until the transport drains. A peer that stops reading
therefore holds at most the responses already encoded and stalls only
its own connection. A connection that closes (the peer's EOF, a bad
frame, ``stop``) flushes its queued answers for at most a second and
is then aborted.

Error discipline: a request that fails validation gets an error frame
naming the exception type and message, and the connection stays up; a
frame that violates the protocol poisons only its own connection; the
listener itself survives both.

Host identifiers must be wire-representable — ``str`` or ``int`` —
exactly like snapshot identifiers (:mod:`repro.serving.snapshot`).

:func:`run_shard_server` is the blocking entry point used by the
``ides-experiment serve shard`` CLI and by
:func:`spawn_shard_process`, which forks a shard into a child process
and reports the bound address back — the building block of the
end-to-end tests and ``benchmarks/bench_transport.py``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..observability.httpd import TelemetryServer
from ..observability.metrics import Sample, get_registry
from ..observability.tracing import TraceContext, configure_tracing, get_tracer
from ..._validation import check_dimension
from ...exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    TransportError,
    ValidationError,
)
from ..engine import QueryEngine
from ..journal import REPLAY_CHUNK, ShardJournal, store_digest
from ..snapshot import load_snapshot
from ..store import InMemoryVectorStore, shard_of
from .protocol import (
    PROTOCOL_VERSION,
    Deadline,
    FrameReader,
    Message,
    encode_frame,
)

__all__ = ["ShardServer", "ShardProcess", "run_shard_server", "spawn_shard_process"]


def _is_wire_id(value) -> bool:
    return isinstance(value, (str, int))


#: The types of a wire id after JSON decoding (``bool`` is an ``int``).
_WIRE_ID_TYPES = {str, int, bool}


def _check_wire_ids(host_ids: list) -> list:
    # One pass over the ids' types; the loop below only names the
    # first bad id.
    if set(map(type, host_ids)) <= _WIRE_ID_TYPES:
        return host_ids
    for host_id in host_ids:
        if not _is_wire_id(host_id):
            raise ValidationError(
                f"host id {host_id!r} is not wire-representable; the "
                "transport supports only str or int identifiers"
            )
    return host_ids


def _is_wire_id_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_wire_id, value))


def _per_query(entries, name: str, m: int, valid, what: str) -> list:
    """A ``nearest`` field holding one entry per query: ``m`` entries,
    each null or passing ``valid``; ``m`` nulls when the request leaves
    the field out."""
    if entries is None:
        return [None] * m
    if not (
        isinstance(entries, list)
        and len(entries) == m
        and all(entry is None or valid(entry) for entry in entries)
    ):
        raise ValidationError(
            f"nearest {name!r} must be a list of {m} entries, each {what} "
            f"or null, got {entries!r}"
        )
    return entries


class ShardServer:
    """Asyncio server for one shard of the distance directory.

    Only the server's own event loop writes its store.

    Args:
        dimension: model dimension ``d`` (ignored when ``store`` is
            given).
        shard_index: which partition of the ``shard_of`` hash space
            this server owns.
        n_shards: total partitions in the deployment; the router
            cross-checks both values during its handshake.
        host / port: bind address (port 0 picks a free port; the bound
            address is available as :attr:`address` after
            :meth:`start`).
        store: a prebuilt store to serve (defaults to an empty
            :class:`InMemoryVectorStore` that the router seeds over
            ``put`` RPCs).
        work_delay: artificial seconds of service time added to every
            request — a test/benchmark hook modeling network and
            compute latency deterministically, never set in real
            deployments. Pipelined requests overlap their delays.
        max_pipeline: admitted but unanswered requests allowed per
            connection before it stops reading (backpressure against a
            peer that writes faster than it reads).
        max_inflight: **server-wide** admission bound: admitted but
            unanswered requests across every connection, a burst of
            pipelined frames counted as a whole before any of it is
            answered. A request beyond it is *rejected* — an
            :class:`OverloadedError` error frame carrying a
            ``retry_after`` hint — instead of queued, so a saturated
            shard sheds excess load explicitly rather than letting
            every caller wait out its timeout. None (the default)
            keeps the legacy queue-everything behaviour.
        journal: a prebuilt :class:`~repro.serving.journal.ShardJournal`
            to record mutations into. When the journal carries entries
            loaded from its on-disk segments, they are replayed into
            the store here — a restarted shard resumes at its old
            high-water mark. Defaults to a fresh in-memory ring sized
            ``journal_capacity``.
        journal_capacity: ring size of the default journal.
    """

    def __init__(
        self,
        dimension: int | None = None,
        shard_index: int = 0,
        n_shards: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        store: InMemoryVectorStore | None = None,
        work_delay: float = 0.0,
        max_pipeline: int = 256,
        max_inflight: int | None = None,
        journal: ShardJournal | None = None,
        journal_capacity: int = 4096,
    ):
        if store is None:
            if dimension is None:
                raise ValidationError("ShardServer needs a dimension or a store")
            store = InMemoryVectorStore(check_dimension(dimension))
        if not 0 <= int(shard_index) < int(n_shards):
            raise ValidationError(
                f"shard_index must be in [0, {n_shards}), got {shard_index}"
            )
        if work_delay < 0:
            raise ValidationError(f"work_delay must be >= 0, got {work_delay}")
        if int(max_pipeline) < 1:
            raise ValidationError(
                f"max_pipeline must be >= 1, got {max_pipeline}"
            )
        if max_inflight is not None and int(max_inflight) < 1:
            raise ValidationError(
                f"max_inflight must be >= 1 or None, got {max_inflight}"
            )
        self.max_pipeline = int(max_pipeline)
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.store = store
        self.journal = (
            journal
            if journal is not None
            else ShardJournal(capacity=journal_capacity)
        )
        # A journal reloaded from disk segments carries the mutations
        # applied after the snapshot this store was seeded from: replay
        # them so a restarted replica resumes where it died instead of
        # where it last snapshotted (puts are idempotent overwrites, so
        # entries the snapshot already contains re-apply harmlessly).
        self.journal.replay_into(store)
        self.engine = QueryEngine(store, zero_copy=True)
        self.shard_index = int(shard_index)
        self.n_shards = int(n_shards)
        self.work_delay = float(work_delay)
        self._host = host
        self._port = int(port)
        self._server: asyncio.base_events.Server | None = None
        self._stopped: asyncio.Event | None = None
        self._stopping: asyncio.Task | None = None  # a shutdown RPC's stop()
        self._connections: set[_ServerConnection] = set()
        self.connections_rejected = 0
        self.pipelined_requests = 0
        #: Admitted requests currently queued or in flight, server-wide.
        self.inflight_requests = 0
        #: Requests rejected at admission (max_inflight exceeded).
        self.overload_rejections = 0
        #: Requests shed because their propagated deadline expired
        #: while they sat in the pipeline queue.
        self.deadline_shed = 0
        #: Deadline-remaining histogram attached by :meth:`bind_metrics`.
        self._deadline_remaining = None
        #: First-class instruments attached by :meth:`bind_metrics`;
        #: ``None`` keeps request handling on the uninstrumented path.
        self._request_seconds = None
        self._requests_total = None
        self._errors_total = None
        self._op_instruments: dict[str, tuple] = {}  # op -> children
        self._span_attributes = {"shard": self.shard_index}
        self._server_span_names: dict[str, str] = {}  # op -> "server:{op}"
        self._engine_span_names: dict[str, str] = {}  # op -> "engine:{op}"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; raises before :meth:`start`."""
        if self._server is None:
            raise TransportError("shard server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        if self._server is not None:
            return self.address
        self._stopped = asyncio.Event()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ServerConnection(self), self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close every connection (each flushes its
        queued answers first) and release the listening socket."""
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        for connection in list(self._connections):
            connection.close()
        try:
            # 3.12's wait_closed also drains live client connections; a
            # router pool keeping idle sockets open must not wedge the
            # shutdown, so the wait is bounded and best-effort.
            await asyncio.wait_for(server.wait_closed(), timeout=1.0)
        except asyncio.TimeoutError:
            pass
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` runs (e.g. via a ``shutdown`` RPC)."""
        if self._stopped is None:
            raise TransportError("shard server is not started")
        await self._stopped.wait()

    async def __aenter__(self) -> "ShardServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def bind_metrics(self, registry) -> None:
        """Expose this server through a metrics registry.

        Request handling gains an ``ides_server_request_seconds``
        histogram and per-op request/error counters; the existing
        cheap counters (engine, pipeline, rejections) and the store
        size become scrape-time collector samples. Unbound servers pay
        nothing on the request path.
        """
        self._request_seconds = registry.histogram(
            "ides_server_request_seconds",
            "Server-side request handling latency (work_delay included).",
            labels=("op",),
        )
        self._requests_total = registry.counter(
            "ides_server_requests_total",
            "Requests handled, by wire operation.",
            labels=("op",),
        )
        self._errors_total = registry.counter(
            "ides_server_errors_total",
            "Requests answered with an error frame, by wire operation.",
            labels=("op",),
        )
        self._deadline_remaining = registry.histogram(
            "ides_server_deadline_remaining_seconds",
            "Budget left on deadline-carrying requests at dispatch time.",
        )
        shard = (("shard", str(self.shard_index)),)

        def collect():
            return [
                Sample("ides_server_shed_total", "counter",
                       "Requests shed on an expired propagated deadline.",
                       (*shard, ("reason", "deadline")), self.deadline_shed),
                Sample("ides_server_shed_total", "counter",
                       "Requests rejected at admission (max_inflight).",
                       (*shard, ("reason", "overload")),
                       self.overload_rejections),
                Sample("ides_server_inflight_requests", "gauge",
                       "Requests queued or in flight, server-wide.",
                       shard, self.inflight_requests),
                Sample("ides_server_pipelined_requests_total", "counter",
                       "Requests admitted past the overload check.",
                       shard, self.pipelined_requests),
                Sample("ides_server_connections_rejected_total", "counter",
                       "Connections dropped for protocol violations.",
                       shard, self.connections_rejected),
                Sample("ides_engine_queries_served_total", "counter",
                       "Queries answered by the local engine.",
                       shard, self.engine.queries_served),
                Sample("ides_engine_pairs_evaluated_total", "counter",
                       "Host pairs evaluated by the local engine.",
                       shard, self.engine.pairs_evaluated),
                Sample("ides_store_hosts", "gauge",
                       "Hosts resident in this shard's vector store.",
                       shard, len(self.store)),
                Sample("ides_journal_seq", "gauge",
                       "Journal high-water mark: last applied write seq.",
                       shard, self.journal.high_water),
                Sample("ides_journal_entries", "gauge",
                       "Entries retained in the journal ring.",
                       shard, len(self.journal)),
                Sample("ides_journal_appended_total", "counter",
                       "Mutations recorded in the journal.",
                       shard, self.journal.appended),
                Sample("ides_journal_evicted_total", "counter",
                       "Entries evicted from the journal ring.",
                       shard, self.journal.evicted),
            ]

        registry.register_collector(collect)

    def health_fields(self) -> dict:
        """The health document served over RPC and HTTP ``/health``."""
        return {
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "dimension": self.store.dimension,
            "n_hosts": len(self.store),
            "queries_served": self.engine.queries_served,
            "pairs_evaluated": self.engine.pairs_evaluated,
            "connections_rejected": self.connections_rejected,
            "pipelined_requests": self.pipelined_requests,
            "inflight_requests": self.inflight_requests,
            "max_inflight": self.max_inflight,
            "overload_rejections": self.overload_rejections,
            "deadline_shed": self.deadline_shed,
            "journal_seq": self.journal.high_water,
            "journal_entries": len(self.journal),
            "journal_first_seq": self.journal.first_seq,
        }

    # ------------------------------------------------------------------ #
    # request path (called from _ServerConnection callbacks)
    # ------------------------------------------------------------------ #

    def _admit(self, connection: _ServerConnection, request: Message) -> None:
        """Admit one decoded request onto its connection, due at once
        or after ``work_delay``, or reject it with an overload frame."""
        # Admission: reject-don't-queue. A saturated shard answers the
        # excess request *immediately* with an overload frame instead
        # of letting it wait out the caller's timeout in a queue it
        # will never clear.
        if (
            self.max_inflight is not None
            and self.inflight_requests >= self.max_inflight
        ):
            self.overload_rejections += 1
            connection.transport.write(
                self._error_frame(
                    OverloadedError(
                        f"shard {self.shard_index} is saturated "
                        f"({self.inflight_requests} requests in "
                        f"flight, max_inflight={self.max_inflight})"
                    ),
                    request.request_id,
                    {"retry_after": self._retry_after()},
                )
            )
            return
        deadline = Deadline.from_fields(request.fields)
        if deadline is not None and self._deadline_remaining is not None:
            self._deadline_remaining.observe(deadline.remaining())
        # Counted last: nothing below raises, so every admitted request
        # is given back by its answer or by connection_lost.
        self.pipelined_requests += 1
        self.inflight_requests += 1
        connection.outstanding += 1
        if self.work_delay:
            asyncio.get_running_loop().call_later(
                self.work_delay, connection.delay_elapsed,
                request, deadline, time.perf_counter(),
            )
        else:
            connection.due.append((request, deadline, None))

    def _retry_after(self) -> float:
        """The overload rejection's backoff hint, in seconds.

        A saturated shard expects to clear one slot per service time,
        so the hint scales with the simulated (or observed-at-config)
        per-request cost; the floor keeps clients from busy-spinning
        against a shard whose service time is effectively zero.
        """
        return max(0.05, self.work_delay)

    @staticmethod
    def _error_frame(
        error: Exception, request_id: int = 0, extra_fields: dict | None = None
    ) -> bytes:
        """An error frame naming ``error``; a frame that never decoded
        has no request id to echo, so it gets id 0."""
        return encode_frame(
            {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
                **(extra_fields or {}),
            },
            request_id=request_id,
        )

    def _answer(
        self,
        connection: _ServerConnection,
        request: Message,
        deadline: Deadline | None,
        admitted: float | None = None,
    ) -> None:
        """Answer one request inside its telemetry envelope.

        With tracing enabled the answer runs in a ``server:{op}`` span
        parented on the client's span when the header carried the
        optional ``trace`` field (a remote parent); with metrics bound
        the latency from ``admitted`` (the request's admission, so a
        ``work_delay`` counts) lands in ``ides_server_request_seconds``.
        Neither configured: exactly the uninstrumented path.
        """
        tracer = get_tracer()
        if not tracer.enabled and self._request_seconds is None:
            self._respond(connection, request, deadline)
            return
        op = str(request.op)
        name = self._server_span_names.get(op)
        if name is None:
            name = self._server_span_names[op] = f"server:{op}"
        parent = TraceContext.from_fields(request.fields)
        started = time.perf_counter() if admitted is None else admitted
        with tracer.span(
            name,
            parent=parent,
            attributes=self._span_attributes,
        ):
            try:
                self._respond(connection, request, deadline)
            finally:
                if self._request_seconds is not None:
                    children = self._op_instruments.get(op)
                    if children is None:
                        children = self._op_instruments[op] = (
                            self._request_seconds.labels(op=op),
                            self._requests_total.labels(op=op),
                        )
                    children[0].observe(time.perf_counter() - started)
                    children[1].inc()

    def _respond(
        self,
        connection: _ServerConnection,
        request: Message,
        deadline: Deadline | None,
    ) -> None:
        """Handle one request and write its frame.

        Per-request isolation: any failure, an encode failure
        included, becomes an error frame for *this* request id.

        The handler may return store views (the ``gather(copy=False)``
        path); ``encode_frame`` copies them into the frame before this
        method returns, and nothing else runs on the loop in between,
        so no request on any connection can mutate those rows first.
        """
        op = request.op
        try:
            # Shed, don't serve: a request whose propagated budget ran
            # out while it waited (work_delay, a peer that stopped
            # reading) has no caller left to care — doing the work now
            # would only delay the requests that still have one.
            if deadline is not None and deadline.expired():
                self.deadline_shed += 1
                raise DeadlineExceededError(
                    f"deadline expired while queued at shard "
                    f"{self.shard_index}"
                )
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ValidationError(f"unknown operation {op!r}")
            name = self._engine_span_names.get(op)
            if name is None:
                name = self._engine_span_names[op] = f"engine:{op}"
            with get_tracer().span(name):
                fields, arrays = handler(self, request)
            frame = encode_frame(
                {"ok": True, **fields}, arrays, request.request_id
            )
        except Exception as error:  # noqa: BLE001 - a handler bug must
            # surface at the caller as an error frame, not kill the shard
            if self._errors_total is not None:
                self._errors_total.labels(op=op).inc()
            connection.transport.write(
                self._error_frame(error, request.request_id)
            )
            return
        connection.transport.write(frame)
        if op == "shutdown":
            # Answered; close this connection (its buffered answer is
            # flushed first) and stop the server.
            connection.close()
            self._stopping = asyncio.get_running_loop().create_task(
                self.stop()
            )

    # ------------------------------------------------------------------ #
    # handlers — one per wire operation (docs/wire-protocol.md)
    # ------------------------------------------------------------------ #

    def _local_ids(self, message: Message, key: str = "ids") -> list:
        ids = message.fields.get(key)
        if not isinstance(ids, list):
            raise ValidationError(f"operation needs a list field {key!r}")
        return _check_wire_ids(ids)

    def _scalar_id(self, message: Message, key: str) -> object:
        host_id = message.fields.get(key)
        if not _is_wire_id(host_id):
            raise ValidationError(
                f"operation needs a str/int field {key!r}, got {host_id!r}"
            )
        return host_id

    def _op_ping(self, message: Message) -> tuple[dict, dict]:
        return (
            {
                "version": PROTOCOL_VERSION,
                "shard_index": self.shard_index,
                "n_shards": self.n_shards,
                "dimension": self.store.dimension,
                "n_hosts": len(self.store),
            },
            {},
        )

    def _op_put_many(self, message: Message) -> tuple[dict, dict]:
        ids = self._local_ids(message)
        stamp = self._replay_stamp(message)
        outgoing = message.array("outgoing")
        incoming = message.array("incoming")
        misrouted = [
            i for i in ids if shard_of(i, self.n_shards) != self.shard_index
        ]
        if misrouted:
            raise ValidationError(
                f"hosts {misrouted[:5]!r} do not belong to shard "
                f"{self.shard_index}/{self.n_shards}"
            )
        self.store.put_many(ids, outgoing, incoming)
        seq = self.journal.append("put_many", ids, outgoing, incoming, seq=stamp)
        return {"stored": len(ids), "seq": seq}, {}

    def _op_update_many(self, message: Message) -> tuple[dict, dict]:
        ids = self._local_ids(message)
        stamp = self._replay_stamp(message)
        unknown = [i for i in ids if i not in self.store]
        if unknown:
            raise ValidationError(
                f"cannot refresh unregistered hosts: {unknown[:5]!r}"
            )
        outgoing = message.array("outgoing")
        incoming = message.array("incoming")
        self.store.put_many(ids, outgoing, incoming)
        seq = self.journal.append(
            "update_many", ids, outgoing, incoming, seq=stamp
        )
        return {"updated": len(ids), "seq": seq}, {}

    def _op_delete(self, message: Message) -> tuple[dict, dict]:
        host_id = self._scalar_id(message, "id")
        stamp = self._replay_stamp(message)
        deleted = self.store.delete(host_id)
        # Journaled even when the host was absent: siblings receive the
        # same fanned-out delete, so recording it unconditionally keeps
        # their sequence numbers aligned.
        seq = self.journal.append("delete", [host_id], seq=stamp)
        return {"deleted": deleted, "seq": seq}, {}

    def _replay_stamp(self, message: Message) -> int | None:
        """A mutating request's optional replay stamp, checked before
        the handler touches the store.

        A repairer replaying a sibling's journal passes the sibling's
        seq in the request's ``seq`` field so both replicas land on the
        same high-water mark (``docs/wire-protocol.md``). Rejecting a
        malformed stamp up front keeps every applied write journaled.
        """
        stamp = message.fields.get("seq")
        if stamp is not None and not isinstance(stamp, int):
            raise ValidationError(f"seq stamp must be an int, got {stamp!r}")
        return stamp

    def _op_gather(self, message: Message) -> tuple[dict, dict]:
        """Outgoing rows for the ids in ``out`` and incoming rows for
        the ids in ``in``: one routed batch's sources and destinations
        on this shard. A request may leave out one list, whose array
        the response then leaves out too, but not both."""
        out_ids = in_ids = None
        if message.fields.get("out") is not None:
            out_ids = self._local_ids(message, "out")
        if message.fields.get("in") is not None:
            in_ids = self._local_ids(message, "in")
        if out_ids is None and in_ids is None:
            raise ValidationError("gather needs an 'out' or an 'in' id list")
        # copy=False: contiguous row slabs leave the store as views, and
        # the codec copies them once into the response frame.
        outgoing = incoming = None
        if out_ids is not None:
            outgoing = self.store.gather(out_ids, copy=False)[0]
        if in_ids is not None:
            incoming = self.store.gather(in_ids, copy=False)[1]
        # A gather is the shard's share of a routed batch (the einsum
        # runs at the router), so it must register as served work or
        # the dominant pairs path would leave every counter at zero.
        self.engine.count_served(0)
        arrays = {"outgoing": outgoing, "incoming": incoming}
        return {}, {name: rows for name, rows in arrays.items() if rows is not None}

    def _op_ids(self, message: Message) -> tuple[dict, dict]:
        return {"ids": self.store.ids()}, {}

    def _op_point(self, message: Message) -> tuple[dict, dict]:
        source_id = self._scalar_id(message, "source")
        destination_id = self._scalar_id(message, "dest")
        return {"value": self.engine.point(source_id, destination_id)}, {}

    def _op_nearest(self, message: Message) -> tuple[dict, dict]:
        """Local top-k among this shard's hosts for each of ``m`` source
        vectors: one routed k-NN batch, which the router merges across
        shards. Every field, and every candidate pool's hosts, is
        checked before the first scan, so a request that fails counts
        no work; each query is then one ``engine.nearest`` call,
        exactly as a batch of one."""
        source_out = message.array("source_out")
        if source_out.ndim != 2 or source_out.shape[1] != self.store.dimension:
            raise ValidationError(
                f"nearest needs 'source_out' of shape (m, "
                f"{self.store.dimension}), got {source_out.shape}"
            )
        m = source_out.shape[0]
        k = message.fields.get("k")
        if not (
            isinstance(k, list)
            and len(k) == m
            and all(isinstance(count, int) and count >= 1 for count in k)
        ):
            raise ValidationError(
                f"nearest needs 'k', a list of {m} ints >= 1, got {k!r}"
            )
        exclude = _per_query(
            message.fields.get("exclude"), "exclude", m, _is_wire_id,
            "a str/int id",
        )
        candidates = _per_query(
            message.fields.get("candidates"), "candidates", m, _is_wire_id_list,
            "a list of str/int ids",
        )
        for pool, skip in zip(candidates, exclude):
            for host_id in pool or ():
                # engine.nearest drops the excluded id before it gathers
                if host_id != skip and host_id not in self.store:
                    raise ValidationError(f"unknown host {host_id!r}")
        ids, distances = [], []
        for row, count, pool, skip in zip(source_out, k, candidates, exclude):
            found, values = self.engine.nearest(row, count, pool, skip)
            ids.append(found)
            distances.append(values)
        values = np.concatenate(distances) if distances else np.zeros(0)
        return {"ids": ids}, {"values": values}

    def _op_export(self, message: Message) -> tuple[dict, dict]:
        ids, outgoing, incoming = self.store.export()
        _check_wire_ids(ids)
        return {"ids": ids}, {"outgoing": outgoing, "incoming": incoming}

    def _op_health(self, message: Message) -> tuple[dict, dict]:
        return self.health_fields(), {}

    def _op_journal_since(self, message: Message) -> tuple[dict, dict]:
        """Chunked replay of the mutations after a given seq.

        The response is bounded (``limit``, capped at the journal's
        replay chunk) — a caller closes a large gap by advancing
        ``since`` to the last seq it received and calling again.
        Per-entry metadata rides the JSON header; put vectors ride the
        binary array channel as ``out_{k}`` / ``in_{k}``.
        """
        since = message.fields.get("since", 0)
        if not isinstance(since, int) or since < 0:
            raise ValidationError(
                f"journal_since needs an int field 'since' >= 0, got {since!r}"
            )
        limit = message.fields.get("limit", REPLAY_CHUNK)
        if not isinstance(limit, int) or limit < 1:
            raise ValidationError(
                f"journal_since 'limit' must be an int >= 1, got {limit!r}"
            )
        entries, truncated = self.journal.entries_since(
            since, min(limit, REPLAY_CHUNK)
        )
        meta = []
        arrays: dict = {}
        for index, entry in enumerate(entries):
            meta.append({"seq": entry.seq, "op": entry.op, "ids": entry.ids})
            if entry.outgoing is not None:
                arrays[f"out_{index}"] = entry.outgoing
                arrays[f"in_{index}"] = entry.incoming
        return (
            {
                "entries": meta,
                "seq": self.journal.high_water,
                "truncated": truncated,
            },
            arrays,
        )

    def _op_digest(self, message: Message) -> tuple[dict, dict]:
        """Content hash + high-water seq: the convergence check."""
        return (
            {
                "digest": store_digest(self.store),
                "seq": self.journal.high_water,
                "n_hosts": len(self.store),
            },
            {},
        )

    def _op_shutdown(self, message: Message) -> tuple[dict, dict]:
        return {"stopping": True}, {}

    _HANDLERS = {
        "ping": _op_ping,
        "put_many": _op_put_many,
        "update_many": _op_update_many,
        "delete": _op_delete,
        "gather": _op_gather,
        "ids": _op_ids,
        "point": _op_point,
        "nearest": _op_nearest,
        "export": _op_export,
        "health": _op_health,
        "journal_since": _op_journal_since,
        "digest": _op_digest,
        "shutdown": _op_shutdown,
    }


class _ServerConnection(asyncio.Protocol):
    """One client connection: frames in, answers out, no task.

    ``outstanding`` counts admitted requests not yet answered: those
    waiting on ``work_delay`` and those in ``due``, ready in order.
    """

    def __init__(self, server: ShardServer):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.frames = FrameReader()
        self.outstanding = 0
        self.due: deque = deque()
        self.write_paused = False
        self._abort: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        self.frames.feed(data)
        self.serve()

    def serve(self) -> None:
        """Admit every whole buffered frame the bounds allow, then
        answer the due requests; repeat while answers free slots.

        Reading pauses at ``max_pipeline`` outstanding requests and
        while the peer is not reading; frames already buffered wait.
        A closing connection answers nothing more.
        """
        server = self.server
        transport = self.transport
        while not (self.write_paused or transport.is_closing()):
            while (
                self.outstanding < server.max_pipeline and not self.write_paused
            ):
                try:
                    request = self.frames.next_message()
                except ProtocolError as broken:
                    # Poisoned connection: best-effort error frame, then
                    # hang up. The listener and every other connection
                    # keep serving.
                    server.connections_rejected += 1
                    transport.write(server._error_frame(broken))
                    self.close()
                    return
                if request is None:
                    break
                server._admit(self, request)
            if not self.due:
                break
            while self.due and not (
                self.write_paused or transport.is_closing()
            ):
                try:
                    server._answer(self, *self.due.popleft())
                finally:
                    self.outstanding -= 1
                    server.inflight_requests -= 1
        if self.write_paused or self.outstanding >= server.max_pipeline:
            transport.pause_reading()
        else:
            transport.resume_reading()

    def delay_elapsed(self, *entry) -> None:
        self.due.append(entry)
        self.serve()

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.serve()

    def close(self) -> None:
        """Close after flushing the queued answers; abort a peer that
        has not taken them within a second."""
        self.transport.close()
        if self._abort is None:
            self._abort = asyncio.get_running_loop().call_later(
                1.0, self.transport.abort
            )

    def eof_received(self) -> None:
        self.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)
        self.server.inflight_requests -= self.outstanding
        if self._abort is not None:
            self._abort.cancel()


# ---------------------------------------------------------------------- #
# process entry points
# ---------------------------------------------------------------------- #


def _shard_store_from_snapshot(
    snapshot_path: str, shard_index: int, n_shards: int
) -> InMemoryVectorStore:
    """This shard's slice of a snapshot: the hosts ``shard_of`` maps here."""
    snapshot = load_snapshot(snapshot_path)
    store = InMemoryVectorStore(snapshot.dimension)
    keep = [
        row
        for row, host_id in enumerate(snapshot.ids)
        if shard_of(host_id, n_shards) == shard_index
    ]
    if keep:
        store.put_many(
            [snapshot.ids[row] for row in keep],
            snapshot.outgoing[keep],
            snapshot.incoming[keep],
        )
    return store


def run_shard_server(
    dimension: int | None = None,
    shard_index: int = 0,
    n_shards: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    snapshot_path: str | None = None,
    work_delay: float = 0.0,
    max_inflight: int | None = None,
    ready=None,
    announce=None,
    telemetry: bool = False,
    metrics_port: int | None = None,
    trace_export: str | None = None,
    slow_ms: float | None = None,
    journal_dir: str | None = None,
    journal_capacity: int = 4096,
) -> None:
    """Run one shard server until a ``shutdown`` RPC (blocking).

    Args:
        dimension: model dimension for an empty shard (ignored with a
            snapshot).
        shard_index / n_shards: this server's slot in the hash space.
        host / port: bind address (port 0 picks a free port).
        snapshot_path: seed the shard with its slice of a service
            snapshot (only hosts hashing to ``shard_index`` are kept).
        work_delay: per-request artificial service time (benchmarks).
        max_inflight: server-wide admission bound (queued + in-flight
            requests); excess requests are rejected with an overload
            error frame instead of queued. None: queue everything.
        ready: optional queue-like object; a ``(host, port, extras)``
            triple is ``put()`` once the server listens (``extras``
            carries e.g. the bound metrics address) — how
            :func:`spawn_shard_process` learns the OS-assigned ports.
        announce: optional callable for a human-readable startup line
            (the CLI passes ``print``).
        telemetry: bind the server to this process's default metrics
            registry and enable tracing (implied by ``metrics_port``
            or ``trace_export``).
        metrics_port: serve HTTP ``/metrics`` + ``/health`` on this
            port (0 picks a free port; None disables the endpoint).
        trace_export: append every finished span to this JSONL file —
            shard processes can share one file with the frontend.
        slow_ms: spans at or above this duration land in the tracer's
            slow-query log.
        journal_dir: directory for the on-disk segment journal. The
            journal reloads existing segments at boot and replays them
            over the snapshot seed, so a restarted replica resumes at
            its pre-crash high-water mark instead of the snapshot's.
        journal_capacity: in-memory journal ring size.
    """
    telemetry = telemetry or metrics_port is not None or trace_export is not None
    store = None
    if snapshot_path is not None:
        store = _shard_store_from_snapshot(snapshot_path, shard_index, n_shards)
    journal = ShardJournal(capacity=journal_capacity, directory=journal_dir)

    async def serve() -> None:
        server = ShardServer(
            dimension=dimension,
            shard_index=shard_index,
            n_shards=n_shards,
            host=host,
            port=port,
            store=store,
            work_delay=work_delay,
            max_inflight=max_inflight,
            journal=journal,
        )
        extras: dict = {}
        telemetry_server = None
        if telemetry:
            registry = get_registry()
            server.bind_metrics(registry)
            tracer = configure_tracing(
                enabled=True,
                service=f"shard-{shard_index}",
                export_path=trace_export,
                slow_ms=slow_ms,
            )
            registry.register_collector(tracer.stats_samples)
            if metrics_port is not None:
                telemetry_server = TelemetryServer(
                    registry=registry,
                    tracer=tracer,
                    health=server.health_fields,
                    host=host,
                    port=metrics_port,
                )
                extras["metrics"] = await telemetry_server.start()
        bound_host, bound_port = await server.start()
        if ready is not None:
            ready.put((bound_host, bound_port, extras))
        if announce is not None:
            announce(
                f"shard {shard_index}/{n_shards} listening on "
                f"{bound_host}:{bound_port} ({len(server.store)} hosts, "
                f"d={server.store.dimension})"
                + (
                    "; metrics on http://{}:{}".format(*extras["metrics"])
                    if "metrics" in extras
                    else ""
                )
            )
        await server.wait_stopped()
        if telemetry_server is not None:
            await telemetry_server.stop()

    asyncio.run(serve())


@dataclass
class ShardProcess:
    """Handle on a shard server running in a child process.

    Attributes:
        process: the :class:`multiprocessing.Process`.
        host / port: the bound address reported back by the child.
        shard_index: the shard slot the child owns.
        metrics_host / metrics_port: the child's HTTP telemetry
            endpoint, when it was spawned with one (else ``None``).
    """

    process: multiprocessing.Process
    host: str
    port: int
    shard_index: int
    metrics_host: str | None = None
    metrics_port: int | None = None

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` of the child's listener."""
        return self.host, self.port

    @property
    def metrics_address(self) -> tuple[str, int]:
        """``(host, port)`` of the child's ``/metrics`` endpoint."""
        if self.metrics_host is None or self.metrics_port is None:
            raise TransportError(
                f"shard {self.shard_index} was spawned without a "
                "metrics endpoint"
            )
        return self.metrics_host, self.metrics_port

    def kill(self) -> None:
        """SIGKILL the child (failure-injection hook).

        Deliberately the harshest exit — no signal handler, no flush,
        no goodbye on the sockets — because that is the crash the
        failover machinery must absorb; the chaos gate
        (``tools/smoke_failover.py``) relies on it.
        """
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: ``shutdown`` RPC first, terminate as a
        fallback, then reap the child."""
        if self.process.is_alive():
            try:
                asyncio.run(_send_shutdown(self.host, self.port, timeout))
            except Exception:  # noqa: BLE001 - the child may already be
                pass  # gone; terminate below is the backstop
            self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.terminate()
            self.process.join(timeout=timeout)


async def _send_shutdown(host: str, port: int, timeout: float) -> None:
    from .client import RemoteShardClient

    client = RemoteShardClient(host, port, timeout=timeout, retries=0)
    try:
        await client.call("shutdown")
    finally:
        await client.close()


def spawn_shard_process(
    shard_index: int,
    n_shards: int,
    dimension: int | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    snapshot_path: str | None = None,
    work_delay: float = 0.0,
    max_inflight: int | None = None,
    startup_timeout: float = 30.0,
    telemetry: bool = False,
    metrics_port: int | None = None,
    trace_export: str | None = None,
    slow_ms: float | None = None,
    journal_dir: str | None = None,
) -> ShardProcess:
    """Fork a shard server into a child process and wait for its port.

    ``telemetry`` / ``metrics_port`` / ``trace_export`` / ``slow_ms``
    plumb straight through to :func:`run_shard_server`: the child binds
    its own registry and tracer (registries are per-process — the
    parent scrapes the child over HTTP, it cannot share its object),
    and the bound metrics address is reported back on the handle.
    ``port`` defaults to 0 (OS-assigned); an explicit port is how the
    chaos tests restart a killed replica at its old address.
    ``journal_dir`` must be private to this replica — two processes
    appending to one segment chain would interleave their seqs.
    """
    ready: multiprocessing.Queue = multiprocessing.Queue()
    process = multiprocessing.Process(
        target=run_shard_server,
        kwargs={
            "dimension": dimension,
            "shard_index": shard_index,
            "n_shards": n_shards,
            "host": host,
            "port": port,
            "snapshot_path": snapshot_path,
            "work_delay": work_delay,
            "max_inflight": max_inflight,
            "ready": ready,
            "telemetry": telemetry,
            "metrics_port": metrics_port,
            "trace_export": trace_export,
            "slow_ms": slow_ms,
            "journal_dir": journal_dir,
        },
        daemon=True,
        name=f"ides-shard-{shard_index}",
    )
    process.start()

    waited = 0.0
    while True:
        try:
            payload = ready.get(timeout=0.2)
            break
        except queue.Empty:
            waited += 0.2
            if not process.is_alive():
                raise TransportError(
                    f"shard {shard_index} process died during startup"
                ) from None
            if waited >= startup_timeout:
                process.terminate()
                raise TransportError(
                    f"shard {shard_index} did not report a port within "
                    f"{startup_timeout}s"
                ) from None
    bound_host, bound_port = payload[0], payload[1]
    extras = payload[2] if len(payload) > 2 else {}
    metrics_address = extras.get("metrics")
    return ShardProcess(
        process=process,
        host=bound_host,
        port=bound_port,
        shard_index=shard_index,
        metrics_host=metrics_address[0] if metrics_address else None,
        metrics_port=metrics_address[1] if metrics_address else None,
    )
