"""Tests for the wire protocol: pipelining, one version, failure injection.

Covers the request-id framing property-wise (interleaved and
out-of-order response streams must resolve every caller correctly),
the refusal of any version byte other than 4, and the chaos path: a
shard killed mid-pipeline must reject every pending future exactly
once, and a closed client must fail in-flight calls fast instead of
letting them hang until their timeout.
"""

import asyncio
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ProtocolError,
    ShardUnavailableError,
    TransportError,
    ValidationError,
)
from repro.serving import (
    AsyncDistanceFrontend,
    RemoteShardClient,
    ShardServer,
    ShardedQueryRouter,
    spawn_shard_process,
)
from repro.serving.store import InMemoryVectorStore
from repro.serving.transport.client import _ShardConnection
from repro.serving.transport.protocol import (
    MAX_REQUEST_ID,
    decode_frame,
    encode_frame,
    read_message,
    write_message,
)

DIMENSION = 4


def run(coroutine):
    return asyncio.run(coroutine)


# ---------------------------------------------------------------------- #
# codec: request ids on the frame
# ---------------------------------------------------------------------- #


class TestRequestIdFraming:
    def test_v2_frame_round_trips_request_id(self):
        message = decode_frame(encode_frame({"op": "ping"}, request_id=777))
        assert message.request_id == 777

    def test_request_id_out_of_range_rejected(self):
        with pytest.raises(ProtocolError, match="request id"):
            encode_frame({"op": "ping"}, request_id=0x10000)

    @given(request_id=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=40, deadline=None)
    def test_every_request_id_round_trips(self, request_id):
        message = decode_frame(
            encode_frame({"op": "x"}, {"v": np.ones(2)}, request_id=request_id)
        )
        assert message.request_id == request_id
        np.testing.assert_array_equal(message.array("v"), np.ones(2))


# ---------------------------------------------------------------------- #
# out-of-order response streams (property: any permutation resolves)
# ---------------------------------------------------------------------- #


class _ShufflingEchoServer:
    """A stub peer that collects a window of requests and answers
    them in an arbitrary (test-chosen) order, echoing each request's
    ``nonce`` field — the adversarial reordering a client's
    demultiplexer must survive."""

    def __init__(self, window: int, order: list[int]):
        self.window = window
        self.order = order
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer):
        try:
            while True:
                batch = []
                for _ in range(self.window):
                    request = await read_message(reader)
                    if request is None:
                        return
                    batch.append(request)
                for position in self.order:
                    request = batch[position]
                    await write_message(
                        writer,
                        {"ok": True, "nonce": request.fields.get("nonce")},
                        request_id=request.request_id,
                    )
        except (ConnectionError, asyncio.CancelledError):
            return
        finally:
            writer.close()


class TestOutOfOrderResponses:
    @given(order=st.permutations(list(range(6))))
    @settings(max_examples=20, deadline=None)
    def test_any_response_permutation_resolves_every_caller(self, order):
        async def scenario():
            async with _ShufflingEchoServer(6, list(order)) as stub:
                client = RemoteShardClient(
                    *stub.address,
                    pool_size=1,
                    timeout=5.0,
                    retries=0,
                )
                try:
                    responses = await asyncio.gather(
                        *(
                            client.call("echo", {"nonce": nonce})
                            for nonce in range(6)
                        )
                    )
                    return [r.fields["nonce"] for r in responses]
                finally:
                    await client.close()

        assert run(scenario()) == list(range(6))

    def test_real_server_answers_out_of_order_correctly(self):
        """Against a real shard server with service delay, a mixed
        pipelined batch resolves every call with its own answer and
        isolates per-request failures."""
        rng = np.random.default_rng(0)
        ids = [f"h{i}" for i in range(12)]
        outgoing = rng.random((12, DIMENSION))
        incoming = rng.random((12, DIMENSION))

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1,
                work_delay=0.005,
            ) as server:
                client = RemoteShardClient(
                    *server.address, pool_size=1, timeout=5.0, retries=0
                )
                try:
                    await client.call(
                        "put_many",
                        {"ids": ids},
                        {"outgoing": outgoing, "incoming": incoming},
                    )
                    calls = [
                        client.call("point", {"source": ids[i], "dest": ids[-1 - i]})
                        for i in range(6)
                    ]
                    bad = client.call("point", {"source": "ghost", "dest": ids[0]})
                    values = await asyncio.gather(*calls)
                    with pytest.raises(ValidationError, match="unknown host"):
                        await bad
                    assert server.pipelined_requests >= 7
                    return [float(v.fields["value"]) for v in values]
                finally:
                    await client.close()

        values = run(scenario())
        for i, value in enumerate(values):
            assert value == pytest.approx(
                float(outgoing[i] @ incoming[-1 - i])
            )


# ---------------------------------------------------------------------- #
# one wire version
# ---------------------------------------------------------------------- #


def _ping_frame_with_version(version: int) -> bytes:
    """A well-formed ping frame whose prelude version byte is ``version``."""
    frame = bytearray(encode_frame({"op": "ping"}))
    frame[4] = version
    return bytes(frame)


class TestSingleVersion:
    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_decode_rejects_any_other_version_byte(self, version):
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            decode_frame(_ping_frame_with_version(version))

    def test_version_1_frame_is_refused_and_its_connection_closed(self):
        """A raw version-1 frame gets a ProtocolError error frame (id 0)
        and a hangup; a client on the same server keeps being answered."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(
                    *server.address, pool_size=1, timeout=5.0, retries=0
                )
                try:
                    await client.call("ping")
                    reader, writer = await asyncio.open_connection(
                        *server.address
                    )
                    try:
                        writer.write(_ping_frame_with_version(1))
                        await writer.drain()
                        refusal = await asyncio.wait_for(
                            read_message(reader), timeout=5.0
                        )
                        hangup = await asyncio.wait_for(
                            read_message(reader), timeout=5.0
                        )
                    finally:
                        writer.close()
                    response = await client.call("ping")
                    return (
                        refusal,
                        hangup,
                        response.fields["n_hosts"],
                        server.connections_rejected,
                    )
                finally:
                    await client.close()

        refusal, hangup, n_hosts, rejected = run(scenario())
        assert refusal.request_id == 0
        assert refusal.fields["ok"] is False
        assert refusal.fields["error"] == "ProtocolError"
        assert "unsupported protocol version 1" in refusal.fields["message"]
        assert hangup is None  # clean EOF: the server closed the socket
        assert n_hosts == 0
        assert rejected == 1

    def test_concurrent_first_calls_share_the_pool(self):
        """A burst of first calls must share the sockets the first of
        them dials, never race past the pool cap."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address, pool_size=2)
                try:
                    await asyncio.gather(
                        *(client.call("ping") for _ in range(16))
                    )
                    return client.open_connections
                finally:
                    await client.close()

        assert run(scenario()) <= 2


# ---------------------------------------------------------------------- #
# chaos: death and shutdown mid-pipeline
# ---------------------------------------------------------------------- #


class TestMidPipelineFailures:
    def test_killed_shard_rejects_every_pending_future_exactly_once(self):
        """Kill a shard process with a full pipeline in flight: every
        pending call must fail with ShardUnavailableError — none may
        hang, none may resolve twice."""
        process = spawn_shard_process(0, 1, dimension=DIMENSION, work_delay=0.5)
        outcomes: list[str] = []

        async def scenario():
            client = RemoteShardClient(
                *process.address, timeout=10.0, retries=0, max_in_flight=32
            )
            try:
                async def one(i: int) -> None:
                    try:
                        await client.call("ping")
                    except ShardUnavailableError:
                        outcomes.append("rejected")
                    else:  # pragma: no cover - the kill must beat 0.5s
                        outcomes.append("answered")

                calls = [asyncio.create_task(one(i)) for i in range(24)]
                await asyncio.sleep(0.1)  # all 24 are now in flight
                assert client.in_flight >= 1
                process.kill()
                await asyncio.wait_for(asyncio.gather(*calls), timeout=5.0)
            finally:
                await client.close()

        started = time.perf_counter()
        run(scenario())
        elapsed = time.perf_counter() - started
        assert outcomes.count("rejected") == 24  # exactly once each
        assert elapsed < 5.0  # failed fast, not via the 10s timeout

    def test_close_fails_in_flight_calls_fast(self):
        """client.close() with calls in flight: ShardUnavailableError
        immediately, never a hang until the (long) timeout."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1,
                work_delay=30.0,
            ) as server:
                client = RemoteShardClient(
                    *server.address, timeout=60.0, retries=2
                )
                calls = [
                    asyncio.create_task(client.call("ping")) for _ in range(4)
                ]
                await asyncio.sleep(0.05)  # in flight, server stalling
                started = time.perf_counter()
                await client.close()
                for call in calls:
                    with pytest.raises(ShardUnavailableError, match="closed"):
                        await asyncio.wait_for(call, timeout=2.0)
                return time.perf_counter() - started

        assert run(scenario()) < 2.0

    def test_frontend_stop_then_router_close_does_not_hang(self):
        """The stop()/close() interaction: tearing down a frontend and
        its router while a pipelined batch is stuck on a slow shard
        completes immediately; the stuck callers get clean errors."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1,
                work_delay=30.0,
            ) as server:
                client = RemoteShardClient(
                    *server.address, timeout=60.0, retries=0
                )
                router = ShardedQueryRouter([client])
                # Handshake would stall on work_delay; skip it.
                router.dimension = DIMENSION
                frontend = AsyncDistanceFrontend(router)
                await frontend.start()
                first = frontend.submit("a", "b")
                second = frontend.submit("c", "d")
                await asyncio.sleep(0.05)
                started = time.perf_counter()
                await asyncio.wait_for(frontend.stop(), timeout=2.0)
                await asyncio.wait_for(router.close(), timeout=2.0)
                for future in (first, second):
                    with pytest.raises(
                        (asyncio.CancelledError, ShardUnavailableError)
                    ):
                        await future
                return time.perf_counter() - started

        assert run(scenario()) < 2.0

    def test_timeout_does_not_poison_the_pipelined_connection(self):
        """One slow call timing out must not break the socket for the
        calls that follow it."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(
                    *server.address, timeout=5.0, retries=0
                )
                await client.call("ping")
                # Shrink the timeout below the service time for one call.
                server.work_delay = 0.3
                client.timeout = 0.05
                with pytest.raises(ShardUnavailableError):
                    await client.call("ping")
                server.work_delay = 0.0
                client.timeout = 5.0
                response = await client.call("ping")
                await client.close()
                return response.fields["n_hosts"]

        assert run(scenario()) == 0


class TestBackpressureAndTelemetry:
    def test_late_response_is_counted_not_delivered(self):
        """A response arriving after its caller timed out is dropped
        and counted in client.late_responses."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(
                    *server.address, timeout=5.0, retries=0
                )
                await client.call("ping")
                server.work_delay = 0.2
                client.timeout = 0.05
                with pytest.raises(ShardUnavailableError):
                    await client.call("ping")
                # let the late frame arrive on the still-open socket
                await asyncio.sleep(0.4)
                late = client.late_responses
                client.timeout = 5.0
                server.work_delay = 0.0
                await client.call("ping")  # connection still healthy
                await client.close()
                return late

        assert run(scenario()) == 1

    def test_server_bounds_outstanding_pipelined_requests(self):
        """With max_pipeline=2 the server never runs more than two
        requests of one connection concurrently — the read loop holds
        the rest back."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1,
                work_delay=0.05, max_pipeline=2,
            ) as server:
                client = RemoteShardClient(
                    *server.address, timeout=10.0, retries=0,
                    max_in_flight=16,
                )
                started = asyncio.get_running_loop().time()
                await asyncio.gather(*(client.call("ping") for _ in range(8)))
                elapsed = asyncio.get_running_loop().time() - started
                await client.close()
                # 8 requests, 2 at a time, 50ms each: >= 4 waves.
                assert elapsed >= 0.15
                assert server.pipelined_requests == 8

        run(scenario())

    def test_gather_view_consumed_before_interleaved_update(self):
        """A gather's row views are copied into its frame before any
        await, so a pipelined update_many racing a gather on the same
        connection must never tear the gather's response — it reflects
        the rows wholly before or wholly after the update."""
        rng = np.random.default_rng(7)
        ids = [f"h{i}" for i in range(16)]
        before_out = rng.random((16, DIMENSION))
        before_in = rng.random((16, DIMENSION))
        after_out = before_out + 100.0
        after_in = before_in + 100.0

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address, timeout=5.0)
                try:
                    await client.call(
                        "put_many",
                        {"ids": ids},
                        {"outgoing": before_out, "incoming": before_in},
                    )
                    for _ in range(20):
                        gather = client.call("gather", {"out": ids})
                        update = client.call(
                            "update_many",
                            {"ids": ids},
                            {"outgoing": after_out, "incoming": after_in},
                        )
                        response, _ = await asyncio.gather(gather, update)
                        seen = np.asarray(response.array("outgoing"))
                        is_before = np.array_equal(seen, before_out)
                        is_after = np.array_equal(seen, after_out)
                        assert is_before or is_after, "torn gather response"
                        await client.call(
                            "update_many",
                            {"ids": ids},
                            {"outgoing": before_out, "incoming": before_in},
                        )
                finally:
                    await client.close()

        run(scenario())

    def test_max_in_flight_is_a_hard_admission_bound(self):
        """Saturating one pooled socket must queue excess callers on
        the slot semaphore, never pile extra request ids onto the
        connection — max_in_flight is a real bound."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1,
                work_delay=0.01,
            ) as server:
                client = RemoteShardClient(
                    *server.address, pool_size=1, max_in_flight=2,
                    timeout=10.0, retries=0,
                )
                peak = 0

                async def watch():
                    nonlocal peak
                    while True:
                        peak = max(peak, client.in_flight)
                        await asyncio.sleep(0.001)

                watcher = asyncio.create_task(watch())
                await asyncio.gather(*(client.call("ping") for _ in range(10)))
                watcher.cancel()
                connection = client._connections[0]
                assert connection.load == 0
                await client.close()
                return peak

        assert run(scenario()) <= 2

    def test_repeated_timeouts_do_not_leak_sockets(self):
        """Retry dials distrust pooled sockets, but idle survivors
        beyond pool_size must be retired — a persistently slow shard
        must not exhaust file descriptors."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(
                    *server.address, pool_size=1, retries=2,
                    retry_backoff=0.0,
                )
                await client.call("ping")
                server.work_delay = 0.5
                client.timeout = 0.03
                for _ in range(5):
                    with pytest.raises(ShardUnavailableError):
                        await client.call("ping")
                # 15 timed-out attempts later the pool is still bounded
                # (idle surplus retired; only in-flight stragglers may
                # briefly exceed the cap).
                assert client.open_connections <= 4
                await client.close()

        run(scenario())


# ---------------------------------------------------------------------- #
# request-id quarantine (a wrapped counter must never mismatch)
# ---------------------------------------------------------------------- #


class _NullTransport(asyncio.Transport):
    """A transport stub that counts and swallows frames (for driving a
    _ShardConnection by hand through its protocol callbacks)."""

    def __init__(self):
        super().__init__()
        self.writes = 0
        self.closed = False

    def write(self, data) -> None:
        self.writes += 1

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def _connected(transport=None, on_late_response=None) -> _ShardConnection:
    """A 4-slot _ShardConnection attached to ``transport``."""
    connection = _ShardConnection(4, on_late_response=on_late_response)
    connection.connection_made(
        transport if transport is not None else _NullTransport()
    )
    return connection


class TestRequestIdQuarantine:
    def test_timed_out_id_is_quarantined_until_its_late_response(self):
        """The id of a timed-out call stays reserved — skipped by the
        claim counter even after it wraps — until the server's late
        response arrives, is dropped, and lifts the quarantine. A
        reassigned id can therefore never resolve a new call with an
        old answer."""

        async def scenario():
            late: list[int] = []
            connection = _connected(on_late_response=lambda: late.append(1))
            loop = asyncio.get_running_loop()
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await connection.call({"op": "ping"}, None, loop.time() + 0.02)
                assert connection._abandoned == {1}
                # Wrap the counter back around: the quarantined id must
                # be skipped, not reissued.
                connection._next_id = 0
                assert connection._claim_id() == 2
                # The late response arrives: dropped, counted, and the
                # id returns to circulation.
                connection.data_received(encode_frame({"ok": True}, request_id=1))
                assert connection._abandoned == set()
                assert late == [1]
                connection._next_id = 0
                assert connection._claim_id() == 1
            finally:
                connection.close()

        run(scenario())

    def test_exhausted_id_space_raises_transport_error(self):
        """With every id in flight or quarantined, _claim_id fails with
        TransportError (which the client retries on a fresh socket)."""

        async def scenario():
            connection = _connected()
            try:
                connection._abandoned = set(range(MAX_REQUEST_ID + 1))
                with pytest.raises(TransportError, match="request id"):
                    connection._claim_id()
            finally:
                connection.close()

        run(scenario())

    def test_transport_error_is_retried_and_mapped_to_unavailable(self):
        """A raw TransportError from the connection layer (e.g. id
        exhaustion) consumes the retry budget and surfaces as
        ShardUnavailableError, never raw."""

        async def scenario():
            client = RemoteShardClient(
                "127.0.0.1", 1, retries=2, retry_backoff=0.0, timeout=1.0
            )

            async def exhausted(request, arrays, fresh, timeout):
                raise TransportError("no free request id")

            client._call_once = exhausted
            with pytest.raises(
                ShardUnavailableError, match="TransportError"
            ):
                await client.call("ping")
            assert client.retries_used == 2
            await client.close()

        run(scenario())


# ---------------------------------------------------------------------- #
# one copy per send (a queued frame never aliases its source arrays)
# ---------------------------------------------------------------------- #


class _RetainingTransport(asyncio.Transport):
    """A write transport that accepts every buffer but sends nothing
    until told to flush — modeling the selector transport's
    by-reference retention of unsent buffers under backpressure
    (Python 3.12+ keeps the exact objects it was handed)."""

    def __init__(self, protocol):
        super().__init__()
        self._protocol = protocol
        self.retained: list = []
        self.sent = bytearray()
        self.writes = 0
        self._low, self._high = 16 * 1024, 64 * 1024
        self._paused = False
        self._closing = False

    def write(self, data) -> None:
        self.writes += 1
        self.retained.append(data)  # by reference, like the real deque
        self._maybe_pause()

    def get_write_buffer_size(self) -> int:
        return sum(memoryview(chunk).nbytes for chunk in self.retained)

    def flush(self) -> None:
        """Pretend the kernel accepted everything."""
        for chunk in self.retained:
            self.sent += bytes(chunk)
        self.retained.clear()
        self._maybe_resume()

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        self._closing = True

    def _maybe_pause(self) -> None:
        if not self._paused and self.get_write_buffer_size() > self._high:
            self._paused = True
            self._protocol.pause_writing()

    def _maybe_resume(self) -> None:
        if self._paused and self.get_write_buffer_size() <= self._low:
            self._paused = False
            self._protocol.resume_writing()


def _retaining_writer():
    loop = asyncio.get_running_loop()
    protocol = asyncio.streams.FlowControlMixin(loop=loop)
    transport = _RetainingTransport(protocol)
    writer = asyncio.StreamWriter(transport, protocol, None, loop)
    return transport, writer


class TestScatterWriteFlush:
    """write_message against a transport that holds what it is given."""

    def test_frame_is_copied_once_before_drain(self):
        """The frame is encoded into one buffer and handed to the
        transport in one write before write_message awaits: mutating
        the source arrays while it waits in drain() cannot change the
        bytes that reach the wire."""

        async def scenario():
            transport, writer = _retaining_writer()
            # 2 x 80 KB: past the 64 KiB high-water mark, so drain waits.
            outgoing = np.arange(10_000, dtype=float)
            incoming = -np.arange(10_000, dtype=float)
            expected_out, expected_in = outgoing.copy(), incoming.copy()
            task = asyncio.create_task(
                write_message(
                    writer, {"op": "x"},
                    {"outgoing": outgoing, "incoming": incoming},
                )
            )
            for _ in range(20):
                await asyncio.sleep(0)
            assert not task.done(), "drain did not wait under backpressure"
            outgoing[:] = 7.0
            incoming[:] = 7.0
            transport.flush()
            await asyncio.wait_for(task, timeout=1.0)
            message = decode_frame(bytes(transport.sent))
            np.testing.assert_array_equal(message.array("outgoing"), expected_out)
            np.testing.assert_array_equal(message.array("incoming"), expected_in)
            assert transport.writes == 1
            writer.close()

        run(scenario())

    def test_header_only_frame_is_not_blocked_by_backpressure(self):
        """A small frame fits under the high-water mark, so
        write_message returns while the transport still holds it."""

        async def scenario():
            transport, writer = _retaining_writer()
            await asyncio.wait_for(
                write_message(writer, {"op": "ping"}), timeout=1.0
            )
            assert transport.retained  # still buffered, and that is fine
            transport.flush()
            assert decode_frame(bytes(transport.sent)).op == "ping"

        run(scenario())


class TestCancellationDiscipline:
    def test_timeout_during_backpressure_flush_does_not_poison(self):
        """A caller that times out while its frame still sits unsent in
        a transport that paused writing (the frame went in one
        synchronous write) leaves the socket healthy for the other
        pipelined calls, and its id goes into quarantine."""

        async def scenario():
            late: list[int] = []
            connection = _ShardConnection(
                4, on_late_response=lambda: late.append(1)
            )
            transport = _RetainingTransport(connection)
            connection.connection_made(transport)
            loop = asyncio.get_running_loop()
            try:
                # 2 x 80 KB: past the 64 KiB high-water mark.
                big = {"v": np.ones(10_000), "w": np.ones(10_000)}
                with pytest.raises(asyncio.TimeoutError):
                    await connection.call({"op": "x"}, big, loop.time() + 0.05)
                assert transport.writes == 1 and connection._write_paused
                assert not connection.broken
                assert connection._abandoned == {1}
                transport.flush()  # the peer finally drains the frame
                assert not connection._write_paused
                # ... and answers late: quarantine lifts, count ticks.
                connection.data_received(encode_frame({"ok": True}, request_id=1))
                assert connection._abandoned == set()
                assert late == [1]
                # The connection still works end to end.
                follow_up = asyncio.create_task(
                    connection.call({"op": "y"}, None, loop.time() + 1.0)
                )
                await asyncio.sleep(0.05)
                connection.data_received(encode_frame({"ok": True}, request_id=2))
                response = await asyncio.wait_for(follow_up, timeout=1.0)
                assert response.fields["ok"]
            finally:
                connection.close()

        run(scenario())

    def test_cancel_before_frame_queued_frees_the_id(self):
        """A call cancelled while it waits for a paused transport to
        resume writing never reached the wire: no response will ever
        come, so its id must return to circulation instead of being
        quarantined."""

        async def scenario():
            transport = _NullTransport()
            connection = _connected(transport)
            loop = asyncio.get_running_loop()
            try:
                connection.pause_writing()  # the server stopped reading
                call = asyncio.create_task(
                    connection.call({"op": "x"}, None, loop.time() + 5.0)
                )
                await asyncio.sleep(0.01)  # now waiting to write
                assert transport.writes == 0
                call.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await call
                assert connection._abandoned == set()
                assert connection._pending == {}
                connection._next_id = 0
                assert connection._claim_id() == 1
            finally:
                connection.close()

        run(scenario())


class TestStalledPeerIsolation:
    def test_stalled_reader_stalls_only_its_own_connection(self):
        """A peer that requests a large response and then stops reading
        holds up only its own connection: other connections' writes and
        reads finish at once, and when the stalled peer reads at last,
        its connection is still open and its frame holds the rows as
        they were when the gather ran."""
        n_hosts, d = 100_000, 40  # ~32 MB response >> kernel buffers
        ids = [f"h{i}" for i in range(n_hosts)]

        async def scenario():
            store = InMemoryVectorStore(d)
            base = np.arange(n_hosts * d, dtype=float).reshape(n_hosts, d)
            store.put_many(ids, base, base)
            async with ShardServer(store=store, shard_index=0, n_shards=1) as server:
                host, port = server.address
                # Connection A: a raw socket with a tiny receive buffer
                # that does not read, so the server's response
                # backpressures in its transport.
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, (host, port)
                )
                reader_a, writer_a = await asyncio.open_connection(sock=sock)
                client = RemoteShardClient(host, port, timeout=10.0, retries=0)
                try:
                    writer_a.write(
                        encode_frame(
                            {"op": "gather", "out": ids},
                            request_id=1,
                        )
                    )
                    await writer_a.drain()
                    # Wait until the gather has run, so the update below
                    # lands after it instead of overtaking the request.
                    for _ in range(2000):
                        if server.engine.queries_served:
                            break
                        await asyncio.sleep(0.005)
                    assert server.engine.queries_served == 1
                    # Connection B: overwrite the LAST rows, the bytes
                    # still queued behind A's unread frame.
                    tail = ids[-1000:]
                    update = np.full((1000, d), -5.0)
                    await asyncio.wait_for(
                        client.call(
                            "update_many",
                            {"ids": tail},
                            {"outgoing": update, "incoming": update},
                        ),
                        timeout=1.0,
                    )
                    response = await asyncio.wait_for(
                        client.call("ping"), timeout=1.0
                    )
                    assert response.fields["n_hosts"] == n_hosts
                    # A reads at last: never aborted, frame untouched.
                    gathered = await asyncio.wait_for(
                        read_message(reader_a), timeout=30.0
                    )
                    np.testing.assert_array_equal(
                        gathered.array("outgoing"), base
                    )
                    writer_a.write(encode_frame({"op": "ping"}, request_id=2))
                    pong = await asyncio.wait_for(
                        read_message(reader_a), timeout=5.0
                    )
                    assert pong.request_id == 2 and pong.fields["ok"]
                finally:
                    writer_a.close()
                    await client.close()

        run(scenario())


    def test_stop_aborts_a_stalled_peer_after_a_second(self):
        """stop() closes a connection whose peer stopped reading; the
        queued answer cannot flush, so the connection is aborted after
        about a second instead of held open."""
        n_hosts, d = 50_000, 20  # ~8 MB response >> kernel buffers
        ids = [f"h{i}" for i in range(n_hosts)]

        async def scenario():
            loop = asyncio.get_running_loop()
            store = InMemoryVectorStore(d)
            base = np.ones((n_hosts, d))
            store.put_many(ids, base, base)
            async with ShardServer(store=store, shard_index=0, n_shards=1) as server:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await loop.sock_connect(sock, server.address)
                _, writer = await asyncio.open_connection(sock=sock)
                try:
                    writer.write(
                        encode_frame({"op": "gather", "out": ids}, request_id=1)
                    )
                    await writer.drain()
                    for _ in range(2000):
                        if server.engine.queries_served:
                            break
                        await asyncio.sleep(0.005)
                    assert len(server._connections) == 1
                    await server.stop()
                    stopped = loop.time()
                    while server._connections and loop.time() - stopped < 5.0:
                        await asyncio.sleep(0.05)
                    return len(server._connections), server.inflight_requests
                finally:
                    writer.close()

        assert run(scenario()) == (0, 0)


class TestShardIndexAttribution:
    def test_close_rejections_carry_the_shard_index(self):
        """Futures rejected at close() keep shard_index, so per-shard
        health attribution survives teardown."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1,
                work_delay=30.0,
            ) as server:
                client = RemoteShardClient(
                    *server.address, shard_index=7, timeout=60.0, retries=0
                )
                call = asyncio.create_task(client.call("ping"))
                await asyncio.sleep(0.05)
                await client.close()
                with pytest.raises(ShardUnavailableError) as caught:
                    await asyncio.wait_for(call, timeout=2.0)
                assert caught.value.shard_index == 7

        run(scenario())


class TestConnectionTeardownHygiene:
    def test_clean_server_eof_closes_the_writer(self):
        """A server hanging up cleanly leaves a half-closed transport
        on the client side; the connection must close it rather than
        let _prune drop the last reference with the fd still open."""

        async def hang_up(reader, writer):
            writer.close()

        async def scenario():
            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            client = RemoteShardClient(
                *server.sockets[0].getsockname()[:2], retries=0
            )
            try:
                connection = await client._dial()
                await asyncio.sleep(0.05)
                assert connection.broken
                assert connection.transport.is_closing()
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(scenario())
