"""Tests for the shard transport: codec, server, client, router.

Everything here runs in one process (servers and clients share the
test's event loop); the cross-process spawn path is covered by
``test_transport_e2e.py``.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import (
    ProtocolError,
    RemoteShardError,
    ShardUnavailableError,
    ValidationError,
)
from repro.serving import (
    AsyncDistanceFrontend,
    InMemoryVectorStore,
    QueryEngine,
    RemoteShardClient,
    ShardServer,
    ShardedQueryRouter,
    shard_of,
)
from repro.serving.journal import store_digest
from repro.serving.transport import protocol
from repro.serving.transport.protocol import (
    MAGIC,
    PRELUDE,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)


def run(coroutine):
    return asyncio.run(coroutine)


# ---------------------------------------------------------------------- #
# codec
# ---------------------------------------------------------------------- #


class TestCodec:
    def test_fields_only_round_trip(self):
        message = decode_frame(encode_frame({"op": "ping", "k": 3, "id": "h7"}))
        assert message.fields == {"op": "ping", "k": 3, "id": "h7"}
        assert message.arrays == {}
        assert message.op == "ping"

    def test_arrays_round_trip_exactly(self):
        outgoing = np.arange(12, dtype=float).reshape(3, 4)
        rows = np.array([5, 2, 9])
        message = decode_frame(
            encode_frame({"op": "x"}, {"out": outgoing, "rows": rows})
        )
        np.testing.assert_array_equal(message.array("out"), outgoing)
        np.testing.assert_array_equal(message.array("rows"), rows)
        assert message.array("rows").dtype == np.int64

    def test_empty_and_zero_dimension_arrays(self):
        message = decode_frame(
            encode_frame({}, {"a": np.zeros((0, 4)), "b": np.zeros(0)})
        )
        assert message.array("a").shape == (0, 4)
        assert message.array("b").shape == (0,)

    def test_non_contiguous_input_is_encoded(self):
        matrix = np.arange(24, dtype=float).reshape(4, 6)
        view = matrix[:, ::2]  # non-contiguous stride
        message = decode_frame(encode_frame({}, {"v": view}))
        np.testing.assert_array_equal(message.array("v"), view)

    def test_decoded_arrays_are_zero_copy_views(self):
        """The decode hot path must not copy payloads: arrays are
        read-only views over the receive buffer; ``writable`` is the
        explicit opt-in copy."""
        frame = encode_frame({}, {"v": np.ones(3)})
        message = decode_frame(frame)
        decoded = message.array("v")
        assert not decoded.flags.writeable
        assert not decoded.flags.owndata  # a view, not a copy
        with pytest.raises((ValueError, TypeError)):
            decoded[0] = 7.0
        mutable = message.writable("v")
        mutable[0] = 7.0  # the on-demand copy owns its memory
        np.testing.assert_array_equal(message.array("v"), np.ones(3))

    def test_missing_array_raises(self):
        message = decode_frame(encode_frame({"op": "x"}))
        with pytest.raises(ProtocolError):
            message.array("nope")

    def test_reserved_arrays_key_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"arrays": []})

    def test_object_dtype_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({}, {"v": np.array(["a", "b"], dtype=object)})


class TestMalformedFrames:
    def frame(self, **overrides):
        """A valid frame, with prelude fields selectively corrupted."""
        payload = encode_frame({"op": "ping"}, {"v": np.ones(2)})
        fields = {
            "magic": MAGIC,
            "version": PROTOCOL_VERSION,
            "flags": 0,
            "reserved": 0,
            "header_length": None,
            "body_length": None,
        }
        magic, version, flags, reserved, header_length, body_length = (
            PRELUDE.unpack(payload[: PRELUDE.size])
        )
        fields.update(header_length=header_length, body_length=body_length)
        fields.update(overrides)
        prelude = PRELUDE.pack(
            fields["magic"],
            fields["version"],
            fields["flags"],
            fields["reserved"],
            fields["header_length"],
            fields["body_length"],
        )
        return prelude + payload[PRELUDE.size :]

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(self.frame(magic=b"EVIL"))

    def test_unknown_version(self):
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(self.frame(version=99))

    def test_reserved_bits_set(self):
        with pytest.raises(ProtocolError, match="reserved"):
            decode_frame(self.frame(flags=1))

    def test_truncated_frame(self):
        with pytest.raises(ProtocolError):
            decode_frame(self.frame()[:-3])

    def test_lying_header_length(self):
        with pytest.raises(ProtocolError):
            decode_frame(self.frame(header_length=5))

    def test_oversized_declared_frame(self):
        with pytest.raises(ProtocolError, match="limit"):
            decode_frame(self.frame(body_length=protocol.MAX_FRAME_BYTES))

    def test_header_not_json(self):
        good = self.frame()
        corrupted = (
            good[: PRELUDE.size]
            + b"{" * (len(good) - PRELUDE.size - 16)
            + good[-16:]
        )
        with pytest.raises(ProtocolError):
            decode_frame(corrupted)

    def test_undeclared_trailing_body_bytes(self):
        payload = encode_frame({"op": "ping"})
        magic, version, flags, reserved, header_length, body_length = (
            PRELUDE.unpack(payload[: PRELUDE.size])
        )
        prelude = PRELUDE.pack(
            magic, version, flags, reserved, header_length, body_length + 8
        )
        with pytest.raises(ProtocolError, match="trailing"):
            decode_frame(prelude + payload[PRELUDE.size :] + b"\x00" * 8)

    def test_dtype_outside_allowlist(self):
        payload = encode_frame({"op": "x"}, {"v": np.ones(2)})
        poisoned = payload.replace(b'"dtype":"<f8"', b'"dtype":"<c8"')
        with pytest.raises(ProtocolError, match="allowlist"):
            decode_frame(poisoned)


class TestCodecProperties:
    @given(
        fields=st.dictionaries(
            st.text(min_size=1, max_size=8).filter(lambda k: k != "arrays"),
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.text(max_size=20),
                st.booleans(),
                st.none(),
            ),
            max_size=5,
        ),
        arrays=st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.one_of(
                hnp.arrays(
                    np.float64,
                    hnp.array_shapes(max_dims=3, max_side=5),
                    elements=st.floats(
                        allow_nan=False, allow_infinity=False, width=64
                    ),
                ),
                hnp.arrays(
                    np.int64,
                    hnp.array_shapes(max_dims=2, max_side=5),
                    elements=st.integers(min_value=-(2**62), max_value=2**62),
                ),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(self, fields, arrays):
        message = decode_frame(encode_frame(fields, arrays))
        assert message.fields == fields
        assert set(message.arrays) == set(arrays)
        for name, payload in arrays.items():
            decoded = message.arrays[name]
            assert decoded.dtype == payload.dtype
            assert decoded.shape == payload.shape
            np.testing.assert_array_equal(decoded, payload)


# ---------------------------------------------------------------------- #
# server + client (in-process, shared event loop)
# ---------------------------------------------------------------------- #


N_HOSTS = 36
DIMENSION = 4


@pytest.fixture
def vectors():
    rng = np.random.default_rng(11)
    ids = [f"h{i}" for i in range(N_HOSTS)]
    return ids, rng.random((N_HOSTS, DIMENSION)) + 0.5, rng.random(
        (N_HOSTS, DIMENSION)
    ) + 0.5


@pytest.fixture
def reference(vectors):
    """Single-process engine over the same vectors: the ground truth."""
    ids, outgoing, incoming = vectors
    store = InMemoryVectorStore(DIMENSION)
    store.put_many(ids, outgoing, incoming)
    return QueryEngine(store)


class _Cluster:
    """N in-process shard servers + a handshaken router."""

    def __init__(self, n_shards, vectors=None, **client_options):
        self.n_shards = n_shards
        self.vectors = vectors
        self.client_options = {"timeout": 5.0, "retries": 1, **client_options}
        self.servers = []
        self.router = None

    async def __aenter__(self):
        for index in range(self.n_shards):
            server = ShardServer(
                dimension=DIMENSION, shard_index=index, n_shards=self.n_shards
            )
            await server.start()
            self.servers.append(server)
        clients = [
            RemoteShardClient(*server.address, **self.client_options)
            for server in self.servers
        ]
        self.router = ShardedQueryRouter(clients)
        await self.router.handshake()
        if self.vectors is not None:
            ids, outgoing, incoming = self.vectors
            await self.router.put_many(ids, outgoing, incoming)
        return self

    async def __aexit__(self, *exc_info):
        await self.router.close()
        for server in self.servers:
            await server.stop()


class TestShardServerRpc:
    def test_ping_reports_topology(self):
        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address)
                response = await client.call("ping")
                await client.close()
                return response.fields

        fields = run(scenario())
        assert fields["shard_index"] == 0
        assert fields["n_shards"] == 1
        assert fields["dimension"] == DIMENSION
        assert fields["version"] == PROTOCOL_VERSION

    def test_put_rejects_misrouted_hosts(self, vectors):
        ids, outgoing, incoming = vectors
        wrong = [i for i in ids if shard_of(i, 2) == 1]

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=2
            ) as server:
                client = RemoteShardClient(*server.address)
                try:
                    with pytest.raises(ValidationError, match="do not belong"):
                        await client.call(
                            "put_many",
                            {"ids": wrong[:2]},
                            {
                                "outgoing": outgoing[:2],
                                "incoming": incoming[:2],
                            },
                        )
                finally:
                    await client.close()

        run(scenario())

    def test_update_refuses_unknown_hosts(self):
        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address)
                try:
                    with pytest.raises(ValidationError, match="unregistered"):
                        await client.call(
                            "update_many",
                            {"ids": ["ghost"]},
                            {
                                "outgoing": np.ones((1, DIMENSION)),
                                "incoming": np.ones((1, DIMENSION)),
                            },
                        )
                finally:
                    await client.close()

        run(scenario())

    #: Hosts of the one-shard server the ``nearest`` tests talk to.
    NEAREST_IDS = ["a", "b", "c", 7, "e", 9]
    NEAREST_OUT = np.random.default_rng(3).random((6, DIMENSION))
    NEAREST_IN = np.random.default_rng(4).random((6, DIMENSION))

    def _nearest_once(self, fields, source_out):
        """Send one raw ``nearest`` to a one-shard server holding
        :attr:`NEAREST_IDS`; return ``(response or error, queries the
        request counted)``. A valid request on the same connection is
        answered afterwards."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address, retries=0)
                try:
                    await client.call(
                        "put_many",
                        {"ids": self.NEAREST_IDS},
                        {"outgoing": self.NEAREST_OUT, "incoming": self.NEAREST_IN},
                    )
                    try:
                        outcome = await client.call(
                            "nearest", fields, {"source_out": source_out}
                        )
                    except ValidationError as error:
                        outcome = error
                    served = server.engine.queries_served
                    # the connection keeps serving after a refusal
                    follow_up = await client.call(
                        "nearest", {"k": [2]}, {"source_out": np.ones((1, DIMENSION))}
                    )
                    assert len(follow_up.fields["ids"]) == 1
                    return outcome, served
                finally:
                    await client.close()

        return run(scenario())

    @pytest.mark.parametrize(
        "fields, rows, field",
        [
            ({"k": "abc"}, 2, "k"),
            ({"k": [2, 2.9]}, 2, "k"),
            ({"k": 2}, 1, "k"),
            ({"k": [2]}, 2, "k"),
            ({"k": [2, 0]}, 2, "k"),
            ({"k": [2]}, None, "source_out"),
            ({"k": [2]}, "wide", "source_out"),
            ({"k": [2, 2], "candidates": "ab"}, 2, "candidates"),
            ({"k": [2, 2], "candidates": 5}, 2, "candidates"),
            ({"k": [2, 2], "candidates": [None]}, 2, "candidates"),
            ({"k": [2, 2], "candidates": ["ab", None]}, 2, "candidates"),
            ({"k": [2, 2], "candidates": [[1.5], None]}, 2, "candidates"),
            ({"k": [2, 2], "exclude": [["a"], None]}, 2, "exclude"),
            ({"k": [2], "exclude": "a"}, 1, "exclude"),
            ({"k": [2, 2], "exclude": ["a"]}, 2, "exclude"),
        ],
        ids=[
            "k-str", "k-float", "k-scalar", "k-short", "k-zero",
            "source-1d", "source-wide", "candidates-str", "candidates-int",
            "candidates-short", "candidates-entry-str", "candidates-float-id",
            "exclude-list", "exclude-scalar", "exclude-short",
        ],
    )
    def test_nearest_rejects_malformed_fields(self, fields, rows, field):
        """Each malformed field is a ValidationError frame naming it,
        raised before the request counts any work; the connection
        keeps serving."""
        if rows is None:
            source_out = np.ones(DIMENSION)
        elif rows == "wide":
            source_out = np.ones((1, DIMENSION + 1))
        else:
            source_out = np.ones((rows, DIMENSION))
        error, served = self._nearest_once(fields, source_out)
        assert isinstance(error, ValidationError)
        assert repr(field) in str(error)
        assert served == 0

    @pytest.mark.parametrize("rotation", [0, 1, 2])
    def test_nearest_answers_each_query_like_engine_nearest(self, rotation):
        """Three queries in one request: a full scan, a candidate pool
        and an empty pool, against an ``exclude`` that is null, a local
        host or an unknown one (rotated across the queries), each with
        its own ``k``. Every answer equals ``engine.nearest``'s."""
        sources = np.random.default_rng(5).random((3, DIMENSION))
        ks = [4, 2, 3]
        pools = [None, ["e", "a", 9, "c"], []]
        excludes = [None, "a", "ghost"]
        excludes = excludes[rotation:] + excludes[:rotation]
        response, served = self._nearest_once(
            {"k": ks, "exclude": excludes, "candidates": pools}, sources
        )
        store = InMemoryVectorStore(DIMENSION)
        store.put_many(self.NEAREST_IDS, self.NEAREST_OUT, self.NEAREST_IN)
        engine = QueryEngine(store)
        expected = [
            engine.nearest(row, k, pool, skip)
            for row, k, pool, skip in zip(sources, ks, pools, excludes)
        ]
        assert response.fields["ids"] == [ids for ids, _ in expected]
        np.testing.assert_array_equal(
            response.array("values"),
            np.concatenate([values for _, values in expected]),
        )
        assert served == engine.queries_served

    def test_nearest_unknown_candidate_counts_no_query(self):
        """A pool naming an unknown host fails the whole request before
        the first scan, so the queries ahead of it count nothing."""
        error, served = self._nearest_once(
            {"k": [2, 2, 2], "candidates": [None, ["a", "b"], ["c", "ghost"]]},
            np.ones((3, DIMENSION)),
        )
        assert isinstance(error, ValidationError)
        assert "'ghost'" in str(error)
        assert served == 0

    @pytest.mark.parametrize(
        "op, fields, arrays",
        [
            ("fanout", {"dests": []}, {"source_out": np.ones(DIMENSION)}),
            ("pairs", {"sources": [], "dests": []}, {}),
        ],
        ids=["fanout", "pairs"],
    )
    def test_fanout_is_an_unknown_operation(self, op, fields, arrays):
        """1:N queries and aligned pairs each take one ``gather`` round;
        the op that shipped a source vector to the destination shards
        and the per-shard ``pairs`` op are gone."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address, retries=0)
                try:
                    with pytest.raises(ValidationError, match="unknown operation"):
                        await client.call(op, fields, arrays)
                finally:
                    await client.close()

        run(scenario())

    @pytest.mark.parametrize("stamp", ["7", 1.5, [1]], ids=["str", "float", "list"])
    @pytest.mark.parametrize("op", ["put_many", "update_many", "delete"])
    def test_malformed_seq_stamp_changes_nothing(self, op, stamp):
        """A malformed replay stamp is rejected before the write is
        applied, so no write can land in the store but not the
        journal."""
        rows = {
            "outgoing": np.full((1, DIMENSION), 2.0),
            "incoming": np.full((1, DIMENSION), 2.0),
        }
        requests = {
            "put_many": ({"ids": ["b"]}, rows),
            "update_many": ({"ids": ["a"]}, rows),
            "delete": ({"id": "a"}, None),
        }

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address)
                try:
                    await client.call(
                        "put_many",
                        {"ids": ["a"]},
                        {
                            "outgoing": np.ones((1, DIMENSION)),
                            "incoming": np.ones((1, DIMENSION)),
                        },
                    )
                    digest = store_digest(server.store)
                    high_water = server.journal.high_water
                    fields, arrays = requests[op]
                    with pytest.raises(ValidationError, match="seq stamp"):
                        await client.call(op, {**fields, "seq": stamp}, arrays)
                    assert store_digest(server.store) == digest
                    assert server.journal.high_water == high_water
                finally:
                    await client.close()

        run(scenario())

    #: Three hosts whose outgoing and incoming rows all differ.
    GATHER_IDS = ["a", "b", "c"]
    GATHER_OUT = np.arange(3 * DIMENSION, dtype=float).reshape(3, DIMENSION)
    GATHER_IN = -GATHER_OUT - 1.0

    def _gather_once(self, fields):
        """Send one raw ``gather`` to a one-shard server holding
        :attr:`GATHER_IDS`; return ``(response or error, queries
        served by the gather)``."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address, retries=0)
                try:
                    await client.call(
                        "put_many",
                        {"ids": self.GATHER_IDS},
                        {"outgoing": self.GATHER_OUT, "incoming": self.GATHER_IN},
                    )
                    try:
                        outcome = await client.call("gather", fields)
                    except ValidationError as error:
                        outcome = error
                    # the connection keeps serving after a refusal
                    await client.call("ping")
                    return outcome, server.engine.queries_served
                finally:
                    await client.close()

        return run(scenario())

    @pytest.mark.parametrize(
        "fields",
        [
            {"out": ["c", "a"]},
            {"in": ["b", "c"]},
            {"out": ["a", "b"], "in": ["b", "c"]},
            {"out": [], "in": ["a"]},
        ],
        ids=["out-only", "in-only", "both-overlapping", "empty-list"],
    )
    def test_gather_answers_out_and_in_lists(self, fields):
        """``out`` gets outgoing rows and ``in`` incoming rows, each in
        request order; an empty list answers zero rows, and a list the
        request leaves out gets no array."""
        response, served = self._gather_once(fields)
        rows = {host: index for index, host in enumerate(self.GATHER_IDS)}
        expected = {
            name: matrix[[rows[host] for host in fields[key]]]
            for key, name, matrix in (
                ("out", "outgoing", self.GATHER_OUT),
                ("in", "incoming", self.GATHER_IN),
            )
            if key in fields
        }
        assert set(response.arrays) == set(expected)
        for name, matrix in expected.items():
            np.testing.assert_array_equal(response.array(name), matrix)
        assert served == 1

    def test_gather_unknown_id_is_named_and_not_counted(self):
        error, served = self._gather_once({"out": ["a"], "in": ["ghost"]})
        assert isinstance(error, ValidationError)
        assert "'ghost'" in str(error)
        assert served == 0

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"ids": ["a"], "which": "out"},
            {"out": "ab"},
            {"in": 5},
            {"out": ["a", 1.5]},
            {"in": [["a"]]},
        ],
        ids=["neither", "ids-and-which", "out-str", "in-int", "out-float-item",
             "in-list-item"],
    )
    def test_gather_rejects_malformed_lists_before_counting(self, fields):
        """A gather that names neither list, or sends a list that is not
        a list of str/int ids, is refused before it reads the store or
        counts a query."""
        error, served = self._gather_once(fields)
        assert isinstance(error, ValidationError)
        assert served == 0

    def test_unknown_operation_is_an_error_frame(self):
        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address)
                try:
                    with pytest.raises(ValidationError, match="unknown operation"):
                        await client.call("frobnicate")
                    # the connection survives the error frame
                    response = await client.call("ping")
                    assert response.fields["n_hosts"] == 0
                finally:
                    await client.close()

        run(scenario())

    def test_malformed_frame_poisons_only_its_connection(self):
        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 32)
                await writer.drain()
                # The server answers with an error frame, then hangs up.
                from repro.serving.transport.protocol import read_message

                response = await asyncio.wait_for(read_message(reader), 5.0)
                assert response.fields["ok"] is False
                assert response.fields["error"] == "ProtocolError"
                assert await reader.read(1) == b""  # connection closed
                writer.close()

                # A well-formed client on a fresh connection still works.
                client = RemoteShardClient(host, port)
                ping = await client.call("ping")
                await client.close()
                assert ping.fields["n_hosts"] == 0
                assert server.connections_rejected == 1

        run(scenario())

    def test_oversized_frame_is_rejected(self):
        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                prelude = PRELUDE.pack(
                    MAGIC, PROTOCOL_VERSION, 0, 0, 64, protocol.MAX_FRAME_BYTES
                )
                writer.write(prelude)
                await writer.drain()
                from repro.serving.transport.protocol import read_message

                response = await asyncio.wait_for(read_message(reader), 5.0)
                assert response.fields["error"] == "ProtocolError"
                writer.close()

        run(scenario())


class TestServerAdmission:
    """Admission against max_inflight on a server answering inline."""

    def test_pipelined_burst_counts_toward_max_inflight(self):
        """Without work_delay, a burst of pipelined frames received at
        once is admitted as a whole before any of it is answered, so
        max_inflight rejects its excess with overload frames."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1, max_inflight=2
            ) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                try:
                    writer.write(
                        b"".join(
                            encode_frame({"op": "ping"}, request_id=i)
                            for i in range(1, 9)
                        )
                    )
                    await writer.drain()
                    responses = [
                        await asyncio.wait_for(
                            protocol.read_message(reader), 5.0
                        )
                        for _ in range(8)
                    ]
                finally:
                    writer.close()
                return (
                    responses,
                    server.overload_rejections,
                    server.inflight_requests,
                )

        responses, rejections, inflight = run(scenario())
        by_id = {response.request_id: response for response in responses}
        assert sorted(by_id) == list(range(1, 9))
        assert [i for i in by_id if by_id[i].fields["ok"]] == [1, 2]
        for i in range(3, 9):
            assert by_id[i].fields["error"] == "OverloadedError"
            assert by_id[i].fields["retry_after"] > 0
        assert rejections == 6
        assert inflight == 0

    def test_overflowing_deadline_field_is_ignored(self):
        """A deadline_ms too large for a float degrades to no deadline:
        the request is answered, its connection stays up, and its
        admission is given back."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1, max_inflight=1
            ) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                try:
                    for request_id in (1, 2):
                        writer.write(
                            encode_frame(
                                {"op": "ping", protocol.DEADLINE_FIELD: 10**400},
                                request_id=request_id,
                            )
                        )
                        response = await asyncio.wait_for(
                            protocol.read_message(reader), 5.0
                        )
                        assert response.request_id == request_id
                        assert response.fields["ok"] is True
                finally:
                    writer.close()
                return server.inflight_requests, server.overload_rejections

        assert run(scenario()) == (0, 0)


class TestClientRetries:
    def test_unreachable_address_raises_shard_unavailable(self):
        async def scenario():
            client = RemoteShardClient(
                "127.0.0.1", 1, shard_index=3, timeout=0.5,
                retries=1, retry_backoff=0.01,
            )
            try:
                with pytest.raises(ShardUnavailableError) as failure:
                    await client.call("ping")
                return failure.value
            finally:
                await client.close()

        error = run(scenario())
        assert error.shard_index == 3
        assert "attempts" in str(error)

    def test_retry_recovers_after_connection_loss(self):
        """A pooled connection severed between calls is retried
        transparently on a fresh socket."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(
                    *server.address, retries=2, retry_backoff=0.01
                )
                await client.call("ping")
                # Sever the pooled connection behind the client's back.
                client._connections[0].transport.close()
                await asyncio.sleep(0.05)
                response = await client.call("ping")  # must retry cleanly
                await client.close()
                assert response.fields["n_hosts"] == 0

        run(scenario())

    def test_retry_survives_server_restart_with_stale_pool(self):
        """After a shard restart every pooled socket is dead; retries
        must drain the pool and dial fresh instead of popping another
        stale connection per attempt."""

        async def scenario():
            server = ShardServer(dimension=DIMENSION, shard_index=0, n_shards=1)
            host, port = await server.start()
            client = RemoteShardClient(
                host, port, pool_size=4, retries=2, retry_backoff=0.01
            )
            try:
                # Park at least one live connection, then bounce the
                # server on the same port (pipelining multiplexes the
                # concurrent pings onto one socket).
                await asyncio.gather(*(client.call("ping") for _ in range(4)))
                assert client.open_connections >= 1
                await server.stop()
                server = ShardServer(
                    dimension=DIMENSION, shard_index=0, n_shards=1,
                    host=host, port=port,
                )
                await server.start()
                response = await client.call("ping")
                assert response.fields["n_hosts"] == 0
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_remote_unmapped_error_type(self):
        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                # Break a handler so the server emits a non-Repro error.
                server.store = None
                client = RemoteShardClient(*server.address, retries=0)
                try:
                    with pytest.raises(RemoteShardError):
                        await client.call("health")
                finally:
                    await client.close()

        run(scenario())


class TestClientEncodeFailures:
    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"out": [np.int64(1)]}, ValidationError),  # not JSON
            ({"arrays": 1}, ProtocolError),  # the reserved header key
        ],
        ids=["json-type", "reserved-key"],
    )
    def test_unencodable_call_fails_alone(self, fields, error):
        """A request that cannot be encoded fails only its own call: the
        shared connection, and the slow call in flight on it, are
        untouched, and no retry is spent."""

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1,
                work_delay=0.05,
            ) as server:
                client = RemoteShardClient(*server.address, pool_size=1)
                try:
                    await client.call("ping")
                    slow = asyncio.create_task(
                        client.call("gather", {"out": []})
                    )
                    await asyncio.sleep(0.01)  # in flight on the socket
                    with pytest.raises(error) as caught:
                        await client.call("gather", fields)
                    response = await slow
                    assert response.array("outgoing").shape == (0, DIMENSION)
                    return caught.value, client.retries_used, (
                        client.open_connections
                    )
                finally:
                    await client.close()

        raised, retries_used, open_connections = run(scenario())
        if error is ValidationError:
            assert "gather" in str(raised)
        assert retries_used == 0
        assert open_connections == 1


class _TaskCounter:
    """Counts the Tasks a loop creates, through its task factory."""

    def __init__(self, loop):
        self.created = 0
        self._loop = loop

    def __call__(self, loop, coroutine, **options):
        self.created += 1
        return asyncio.Task(coroutine, loop=loop, **options)

    def __enter__(self):
        self._loop.set_task_factory(self)
        return self

    def __exit__(self, *exc_info):
        self._loop.set_task_factory(None)


class TestRpcStructure:
    """The per-RPC machinery, pinned by counts instead of timers."""

    def test_sequential_rpcs_create_no_tasks(self, vectors):
        """After the first call has dialed, an RPC on an open
        connection creates no Task on either side: the client writes
        and awaits a future, and the server answers in data_received."""
        ids, outgoing, incoming = vectors

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address, pool_size=1)
                try:
                    await client.call(
                        "put_many",
                        {"ids": ids},
                        {"outgoing": outgoing, "incoming": incoming},
                    )
                    loop = asyncio.get_running_loop()
                    with _TaskCounter(loop) as counter:
                        for i in range(200):
                            await client.call("gather", {"out": ids[i % 20:][:3]})
                    return counter.created
                finally:
                    await client.close()

        assert run(scenario()) == 0

    def test_burst_on_one_connection_resolves_every_caller(self, vectors):
        """64 concurrent gathers share one socket; each caller gets its
        own rows back, and the server admits every one of them."""
        ids, outgoing, incoming = vectors

        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=0, n_shards=1
            ) as server:
                client = RemoteShardClient(*server.address, pool_size=1)
                try:
                    await client.call(
                        "put_many",
                        {"ids": ids},
                        {"outgoing": outgoing, "incoming": incoming},
                    )
                    before = server.pipelined_requests
                    picks = [ids[i % len(ids)] for i in range(64)]
                    responses = await asyncio.gather(
                        *(client.call("gather", {"out": [p]}) for p in picks)
                    )
                    return (
                        picks,
                        responses,
                        server.pipelined_requests - before,
                        client.open_connections,
                    )
                finally:
                    await client.close()

        picks, responses, admitted, open_connections = run(scenario())
        row_of = {host: row for row, host in enumerate(ids)}
        for host, response in zip(picks, responses):
            np.testing.assert_array_equal(
                response.array("outgoing"), outgoing[[row_of[host]]]
            )
        assert admitted == 64
        assert open_connections == 1


# ---------------------------------------------------------------------- #
# router
# ---------------------------------------------------------------------- #


class TestRouterQueries:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_all_query_shapes_match_local_engine(
        self, vectors, reference, n_shards
    ):
        ids = vectors[0]

        async def scenario():
            async with _Cluster(n_shards, vectors) as cluster:
                router = cluster.router
                point = await router.point(ids[3], ids[17])
                pairs = await router.pairs(ids[:10], ids[20:30])
                fan_out = await router.one_to_many(ids[0], ids[4:24])
                block = await router.many_to_many(ids[:6], ids[6:14])
                nearest = await router.k_nearest(ids[2], 5)
                constrained = await router.k_nearest(
                    ids[2], 3, candidate_ids=ids[10:20]
                )
                return point, pairs, fan_out, block, nearest, constrained

        point, pairs, fan_out, block, nearest, constrained = run(scenario())
        assert point == pytest.approx(reference.point(ids[3], ids[17]))
        np.testing.assert_allclose(pairs, reference.pairs(ids[:10], ids[20:30]))
        np.testing.assert_allclose(
            fan_out, reference.one_to_many(ids[0], ids[4:24])
        )
        np.testing.assert_allclose(
            block, reference.many_to_many(ids[:6], ids[6:14])
        )
        assert nearest == reference.k_nearest(ids[2], 5)
        assert constrained == reference.k_nearest(
            ids[2], 3, candidate_ids=ids[10:20]
        )

    def test_pairs_sends_one_gather_per_shard(self, vectors, reference):
        """Sources and destinations on every shard cost each shard one
        ``gather``, not one per side."""
        ids = vectors[0]
        sources, destinations = ids[:12], ids[12:24]
        for side in (sources, destinations):
            assert {shard_of(host, 3) for host in side} == {0, 1, 2}

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                before = [s.engine.queries_served for s in cluster.servers]
                values = await cluster.router.pairs(sources, destinations)
                after = [s.engine.queries_served for s in cluster.servers]
                return values, [a - b for a, b in zip(after, before)]

        values, served = run(scenario())
        np.testing.assert_allclose(values, reference.pairs(sources, destinations))
        assert served == [1, 1, 1]

    def test_k_nearest_ties_keep_shard_order_then_each_shards_order(self):
        """Equal distances merge in shard order; within a shard they keep
        store order on a full scan and pool order with a candidate pool."""
        hosts = [f"t{i}" for i in range(12)]
        assert {shard_of(host, 3) for host in hosts} == {0, 1, 2}
        ones = np.ones((len(hosts), DIMENSION))

        def by_shard(ids):
            return sorted(ids, key=lambda host: shard_of(host, 3))

        async def scenario():
            async with _Cluster(3, (hosts, ones, ones)) as cluster:
                full = await cluster.router.k_nearest("t0", 11)
                pooled = await cluster.router.k_nearest(
                    "t0", 11, candidate_ids=hosts[::-1]
                )
                return full, pooled

        full, pooled = run(scenario())
        assert [host for host, _ in full] == by_shard(hosts[1:])
        assert [host for host, _ in pooled] == by_shard(hosts[:0:-1])
        assert {value for _, value in full + pooled} == {float(DIMENSION)}

    def test_gather_returns_store_rows(self, vectors):
        ids, outgoing, incoming = vectors
        picks = [5, 0, 17, 33, 2, 5]

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                return await cluster.router.gather([ids[p] for p in picks])

        got_out, got_in = run(scenario())
        np.testing.assert_array_equal(got_out, outgoing[picks])
        np.testing.assert_array_equal(got_in, incoming[picks])

    def test_unknown_host_maps_to_validation_error(self, vectors):
        async def scenario():
            async with _Cluster(2, vectors) as cluster:
                with pytest.raises(ValidationError, match="unknown host"):
                    await cluster.router.point("ghost", vectors[0][0])

        run(scenario())

    def test_updates_change_answers_and_bump_epoch(self, vectors):
        ids, outgoing, incoming = vectors

        async def scenario():
            async with _Cluster(2, vectors) as cluster:
                router = cluster.router
                epoch = router.write_epoch
                await router.apply_vector_updates(
                    ids, outgoing + 1.0, incoming + 1.0
                )
                assert router.write_epoch == epoch + 1
                return await router.point(ids[1], ids[2])

        value = run(scenario())
        expected = float((outgoing[1] + 1.0) @ (incoming[2] + 1.0))
        assert value == pytest.approx(expected)

    def test_update_unknown_host_propagates(self, vectors):
        ids, outgoing, incoming = vectors

        async def scenario():
            async with _Cluster(2, vectors) as cluster:
                with pytest.raises(ValidationError, match="unregistered"):
                    await cluster.router.apply_vector_updates(
                        ["ghost"], outgoing[:1], incoming[:1]
                    )

        run(scenario())

    def test_delete_and_known_hosts(self, vectors):
        ids = vectors[0]

        async def scenario():
            async with _Cluster(2, vectors) as cluster:
                router = cluster.router
                assert await router.delete(ids[0]) is True
                assert await router.delete(ids[0]) is False
                return sorted(await router.known_hosts())

        assert run(scenario()) == sorted(ids[1:])

    def test_health_aggregates_per_shard_counters(self, vectors):
        ids = vectors[0]

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                router = cluster.router
                await router.pairs(ids[:8], ids[8:16])
                return await router.health()

        health = run(scenario())
        assert health.n_hosts == N_HOSTS
        assert health.n_shards == 3
        assert len(health.shards) == 3
        assert health.unreachable_shards == 0
        assert all(shard.address for shard in health.shards)
        assert sum(shard.n_hosts for shard in health.shards) == N_HOSTS

    def test_handshake_rejects_topology_mismatch(self):
        async def scenario():
            async with ShardServer(
                dimension=DIMENSION, shard_index=1, n_shards=4
            ) as server:
                client = RemoteShardClient(*server.address)
                router = ShardedQueryRouter([client])
                try:
                    with pytest.raises(ValidationError, match="expected"):
                        await router.handshake()
                finally:
                    await router.close()

        run(scenario())


class TestFrontendOverRouter:
    def test_coalesced_queries_match_local_engine(self, vectors, reference):
        ids = vectors[0]
        rng = np.random.default_rng(5)
        pair_picks = list(
            zip(
                rng.integers(0, N_HOSTS, 40).tolist(),
                rng.integers(0, N_HOSTS, 40).tolist(),
            )
        )

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                async with AsyncDistanceFrontend(cluster.router) as frontend:
                    futures = [
                        frontend.submit(ids[s], ids[d]) for s, d in pair_picks
                    ]
                    point_values = [await future for future in futures]
                    fan_out = await frontend.query_one_to_many(
                        ids[0], ids[10:20]
                    )
                    nearest = await frontend.k_nearest(ids[7], 4)
                    stats = frontend.stats()
                return point_values, fan_out, nearest, stats

        point_values, fan_out, nearest, stats = run(scenario())
        for (s, d), value in zip(pair_picks, point_values):
            assert value == pytest.approx(reference.point(ids[s], ids[d]))
        np.testing.assert_allclose(
            fan_out, reference.one_to_many(ids[0], ids[10:20])
        )
        assert nearest == reference.k_nearest(ids[7], 4)
        assert stats.completed == stats.submitted
        assert stats.batches >= 1

    def test_coalesced_batch_sends_one_gather_per_shard(self, vectors, reference):
        ids = vectors[0]
        picks = list(zip(ids[:12], ids[12:24]))

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                async with AsyncDistanceFrontend(cluster.router) as frontend:
                    before = [s.engine.queries_served for s in cluster.servers]
                    futures = [frontend.submit(s, d) for s, d in picks]
                    values = [await future for future in futures]
                    after = [s.engine.queries_served for s in cluster.servers]
                    stats = frontend.stats()
                return values, [a - b for a, b in zip(after, before)], stats

        values, served, stats = run(scenario())
        assert stats.batches == 1 and stats.completed == len(picks)
        for (source, destination), value in zip(picks, values):
            assert value == pytest.approx(reference.point(source, destination))
        assert served == [1, 1, 1]

    @staticmethod
    def _record_ops(router) -> list:
        """Wrap every shard client's ``call`` to log ``(shard, op)``."""
        calls = []
        for shard, client in enumerate(router.clients):

            async def call(op, *args, _send=client.call, _shard=shard, **kwargs):
                calls.append((_shard, op))
                return await _send(op, *args, **kwargs)

            client.call = call
        return calls

    async def _one_cycle(self, cluster, queries):
        """Run ``queries`` (frontend -> awaitable) in one dispatch cycle;
        return their answers (or errors), each server's added
        ``pipelined_requests``, the ops each shard received and the
        frontend's stats."""
        async with AsyncDistanceFrontend(cluster.router) as frontend:
            calls = self._record_ops(cluster.router)
            before = [s.pipelined_requests for s in cluster.servers]
            answers = await asyncio.gather(
                *(query(frontend) for query in queries), return_exceptions=True
            )
            after = [s.pipelined_requests for s in cluster.servers]
            stats = frontend.stats()
        added = [a - b for a, b in zip(after, before)]
        return answers, added, sorted(calls), stats

    def test_knn_cycle_sends_one_gather_and_one_nearest_per_shard(
        self, vectors, reference
    ):
        """Six k-NN requests in one cycle cost each shard one ``gather``
        (the sources it holds) and one ``nearest`` (every source row)."""
        ids = vectors[0]
        sources = ids[:6]
        assert {shard_of(host, 3) for host in sources} == {0, 1, 2}
        ks = [1, 2, 3, 4, 5, 6]

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                return await self._one_cycle(
                    cluster,
                    [
                        lambda f, s=s, k=k: f.k_nearest(s, k)
                        for s, k in zip(sources, ks)
                    ],
                )

        answers, added, calls, stats = run(scenario())
        assert stats.batches == 1 and stats.max_batch_seen == 6
        for source, k, answer in zip(sources, ks, answers):
            assert answer == reference.k_nearest(source, k)
        assert added == [2, 2, 2]
        assert calls == [
            (shard, op) for shard in range(3) for op in ("gather", "nearest")
        ]

    def test_one_to_many_cycle_sends_one_gather_per_involved_shard(
        self, vectors, reference
    ):
        """Six 1:N requests in one cycle cost each shard holding a source
        or a destination one ``gather``, and an uninvolved shard
        nothing."""
        ids = vectors[0]
        near = [host for host in ids if shard_of(host, 3) in (0, 1)]
        sources = near[:6]
        destinations = [near[6 + i : 14 + i] for i in range(6)]

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                return await self._one_cycle(
                    cluster,
                    [
                        lambda f, s=s, d=d: f.query_one_to_many(s, d)
                        for s, d in zip(sources, destinations)
                    ],
                )

        answers, added, calls, stats = run(scenario())
        assert stats.batches == 1 and stats.max_batch_seen == 6
        for source, hosts, answer in zip(sources, destinations, answers):
            np.testing.assert_allclose(
                answer, reference.one_to_many(source, hosts)
            )
        assert added == [1, 1, 0]
        assert calls == [(0, "gather"), (1, "gather")]

    @pytest.mark.parametrize("kind", ["k_nearest", "one_to_many"])
    def test_unknown_host_fails_alone_in_its_scan_cycle(
        self, vectors, reference, kind
    ):
        """The cycle's batch fails on the unknown host, every member is
        re-sent alone, and only the bad request gets the error."""
        ids = vectors[0]
        if kind == "k_nearest":
            requests = [(ids[0], None), ("ghost", None), (ids[1], None)]

            def query(source, _):
                return lambda f: f.k_nearest(source, 3)

            def expected(source, _):
                return reference.k_nearest(source, 3)
        else:
            requests = [
                (ids[0], ids[10:14]), (ids[1], [ids[15], "ghost"]),
                (ids[2], ids[20:26]),
            ]

            def query(source, hosts):
                return lambda f: f.query_one_to_many(source, hosts)

            def expected(source, hosts):
                return reference.one_to_many(source, hosts)

        async def scenario():
            async with _Cluster(3, vectors) as cluster:
                return await self._one_cycle(
                    cluster, [query(*request) for request in requests]
                )

        answers, _, _, stats = run(scenario())
        assert stats.batches == 1 and stats.point_fallbacks == 3
        assert isinstance(answers[1], ValidationError)
        for index in (0, 2):
            np.testing.assert_array_equal(
                np.asarray(answers[index], dtype=object),
                np.asarray(expected(*requests[index]), dtype=object),
            )

    def test_bad_request_fails_alone_in_coalesced_batch(self, vectors):
        ids = vectors[0]

        async def scenario():
            async with _Cluster(2, vectors) as cluster:
                async with AsyncDistanceFrontend(cluster.router) as frontend:
                    good = frontend.submit(ids[0], ids[1])
                    bad = frontend.submit("ghost", ids[2])
                    also_good = frontend.submit(ids[3], ids[4])
                    value = await good
                    with pytest.raises(ValidationError):
                        await bad
                    other = await also_good
                return value, other

        value, other = run(scenario())
        assert np.isfinite(value) and np.isfinite(other)

    def test_populate_cache_round_trips_through_router_cache(self, vectors):
        ids = vectors[0]

        async def scenario():
            async with _Cluster(2, vectors) as cluster:
                router = cluster.router
                async with AsyncDistanceFrontend(
                    router, populate_cache=True
                ) as frontend:
                    first = await frontend.query(ids[0], ids[1])
                    second = await frontend.query(ids[0], ids[1])
                    stats = frontend.stats()
                return first, second, stats, len(router.cache)

        first, second, stats, cached = run(scenario())
        assert first == second
        assert stats.cache_hits == 1
        assert cached >= 1

    def test_rejects_backends_without_protocol(self):
        with pytest.raises(ValidationError, match="backend"):
            AsyncDistanceFrontend(object())

    def test_stop_mid_batch_cancels_in_flight_futures(self):
        """With an async backend a batch is a real await point; stop()
        must cancel the futures of the batch being executed, not only
        the still-queued ones."""
        from repro.serving import PredictionCache

        class SlowBackend:
            cache = PredictionCache()
            write_epoch = 0

            def cache_put_if_current(self, *args):
                return False

            def cache_put_many_if_current(self, *args):
                return 0

            async def point(self, source_id, destination_id, deadline=None):
                await asyncio.sleep(30)

            async def pairs(self, source_ids, destination_ids, deadline=None):
                await asyncio.sleep(30)

            async def one_to_many_batch(self, source_ids, destination_ids):
                await asyncio.sleep(30)

            async def k_nearest_batch(self, source_ids, ks, candidate_ids):
                await asyncio.sleep(30)

        async def scenario():
            frontend = AsyncDistanceFrontend(SlowBackend())
            await frontend.start()
            first = frontend.submit("a", "b")
            second = frontend.submit("c", "d")
            await asyncio.sleep(0.05)  # batch is now in flight
            assert frontend._in_flight
            await asyncio.wait_for(frontend.stop(), 5)
            for future in (first, second):
                with pytest.raises(asyncio.CancelledError):
                    await future

        asyncio.run(asyncio.wait_for(scenario(), 10))
