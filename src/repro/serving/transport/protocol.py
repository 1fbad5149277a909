"""The wire format: framed JSON headers with raw ndarray payloads.

One message is one frame; the full byte-level layout, the message
vocabulary and the version rule are specified in
``docs/wire-protocol.md`` (this module is the reference
implementation). The short version::

    offset  size  field
    0       4     magic  b"IDES"
    4       1     protocol version (always 4)
    5       1     flags (reserved, must be 0)
    6       2     request id
    8       4     header length H, big-endian unsigned
    12      4     body length B, big-endian unsigned
    16      H     header: UTF-8 JSON object
    16+H    B     body: the concatenated C-order bytes of every array

The 16-bit **request id** is what licenses pipelining: a client may
write many request frames onto one socket without waiting, and the
server echoes each request's id on its response frame so answers can
return out of order. There is exactly one wire version; a frame with
any other version byte is a :class:`~repro.exceptions.ProtocolError`.

The header carries all scalar fields (the operation name, host
identifiers, error text, ...) plus an ``"arrays"`` list describing
each binary payload: ``{"name": ..., "dtype": ..., "shape": [...]}``
in body order. Splitting metadata from bulk keeps the hot path free of
per-element encoding — a gathered ``(n, d)`` float64 matrix goes onto
the socket as exactly its C-order bytes — while staying introspectable
with nothing but ``struct`` and ``json`` (no third-party codec to
install on either end).

Copies:

* **decode** — payloads are ``np.frombuffer`` *views* over the
  received body buffer, never copies. Decoded arrays are therefore
  read-only; a consumer that needs to mutate one calls
  :meth:`Message.writable` (the only place a copy happens, and only
  on demand).
* **encode** — :func:`encode_frame` copies each payload once, into
  the single ``bytes`` frame it returns, before :func:`write_message`
  first awaits. The frame owns its bytes, so callers may mutate the
  source arrays the moment encoding returns, even while the frame
  still waits in a backpressured transport.

Every decode guard raises :class:`~repro.exceptions.ProtocolError`:
wrong magic, unknown version, non-zero reserved bits, frames above
:data:`MAX_FRAME_BYTES`, header/body length mismatches, dtypes outside
the allowlist. A server treats any of these as a poisoned connection —
answer with an error frame if possible, then close; never crash the
listener.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from ...exceptions import ProtocolError

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MAX_REQUEST_ID",
    "PROTOCOL_VERSION",
    "PRELUDE",
    "DEADLINE_FIELD",
    "Deadline",
    "Message",
    "encode_frame",
    "decode_frame",
    "FrameReader",
    "read_message",
    "write_message",
]

MAGIC = b"IDES"

#: The one wire version: request-id framing, pipelining, a ``gather``
#: that carries separate ``out`` and ``in`` id lists, and a ``nearest``
#: that carries one source row per query.
PROTOCOL_VERSION = 4

#: Request ids are the prelude's 16-bit field; id 0 is valid (error
#: frames for requests that never decoded carry it).
MAX_REQUEST_ID = 0xFFFF

#: Hard ceiling on one frame (prelude + header + body). Large enough
#: for ~4M float64 vector rows at d=10, small enough that a length
#: field corrupted into garbage cannot make a peer allocate the moon.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: The fixed 16-byte frame prelude (see the module docstring).
PRELUDE = struct.Struct("!4sBBHII")

#: The header's JSON encoder, built once rather than per frame.
_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: dtypes allowed on the wire. Everything the serving stack ships is
#: float64 matrices or int64 index vectors; an allowlist means a
#: malicious header cannot smuggle object dtypes through ``np.frombuffer``.
_WIRE_DTYPES = {"<f8", "<i8"}


#: Optional JSON-header field carrying a request's *remaining* latency
#: budget in milliseconds. Like the trace field it is additive and
#: tolerant: peers that predate it ignore it (unknown header keys pass
#: through the codec untouched), so it never bumps the protocol
#: version. The wire carries the remaining budget — not an
#: absolute timestamp — because the two hosts' clocks are unrelated;
#: each hop re-anchors the budget against its own monotonic clock.
DEADLINE_FIELD = "deadline_ms"


class Deadline:
    """A request's latency budget, anchored to a monotonic clock.

    Created once at the edge (``Deadline.after(0.25)`` for a 250 ms
    budget) and passed down the call stack; every layer asks
    :meth:`remaining` against the *same* clock, so the budget shrinks
    as real work happens. Crossing a process boundary, the remaining
    budget is serialized with :meth:`header_value` and re-anchored on
    the far side with :meth:`from_fields` — queueing and transfer time
    on either side of the wire are charged to the budget.
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(self, expires_at: float, clock=time.monotonic):
        self._expires_at = float(expires_at)
        self._clock = clock

    @classmethod
    def after(cls, seconds: float, clock=time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(clock() + float(seconds), clock=clock)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self._clock() >= self._expires_at

    def header_value(self) -> float:
        """The remaining budget as the wire's millisecond field."""
        return self.remaining() * 1000.0

    @classmethod
    def from_fields(cls, fields: dict, clock=time.monotonic) -> "Deadline | None":
        """Recover a deadline from a request header, tolerantly.

        Returns None when the field is absent or malformed — an old or
        buggy peer must degrade to no-deadline behaviour, never poison
        the connection.
        """
        value = fields.get(DEADLINE_FIELD)
        if value is None:
            return None
        try:
            remaining_ms = float(value)
        except (TypeError, ValueError, OverflowError):  # e.g. a 400-digit int
            return None
        if not np.isfinite(remaining_ms):
            return None
        return cls.after(max(0.0, remaining_ms) / 1000.0, clock=clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.4f}s)"


@dataclass(frozen=True)
class Message:
    """One decoded frame: scalar fields plus named arrays.

    Attributes:
        fields: the header's scalar entries (``"arrays"`` removed).
        arrays: name -> ndarray for each binary payload. These are
            read-only **views** over the frame's receive buffer (the
            zero-copy contract); use :meth:`writable` when a mutable
            copy is genuinely needed.
        request_id: the prelude's request id.
    """

    fields: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    request_id: int = 0

    @property
    def op(self) -> str:
        """The operation name (requests) or ``""`` when absent."""
        return str(self.fields.get("op", ""))

    def array(self, name: str) -> np.ndarray:
        """A named payload; raises :class:`ProtocolError` when missing.

        The returned array is a read-only view over the receive
        buffer — free to index, reduce, or feed to BLAS, but not to
        mutate in place (see :meth:`writable`).
        """
        try:
            return self.arrays[name]
        except KeyError:
            raise ProtocolError(f"frame is missing array {name!r}") from None

    def writable(self, name: str) -> np.ndarray:
        """A mutable copy of a named payload (the only decode copy)."""
        return np.array(self.array(name))


def _wire_dtype(array: np.ndarray) -> str:
    if array.dtype == np.float64:
        return "<f8"
    if array.dtype == np.int64:
        return "<i8"
    raise ProtocolError(
        f"dtype {array.dtype} is not wire-encodable; use float64 or int64"
    )


def encode_frame(
    fields: dict,
    arrays: dict[str, np.ndarray] | None = None,
    request_id: int = 0,
) -> bytes:
    """Serialize one message into a single complete frame buffer.

    Each payload's bytes are copied exactly once, into the returned
    frame, so the frame never aliases the source arrays.

    Args:
        fields: JSON-representable scalar fields. Must not contain the
            reserved key ``"arrays"``.
        arrays: named ndarray payloads; C-contiguous float64/int64
            inputs are copied straight into the frame, anything else
            is converted first (non-wire dtypes to float64).
        request_id: the 16-bit pipelining id.
    """
    if "arrays" in fields:
        raise ProtocolError("'arrays' is a reserved header key")
    if not 0 <= int(request_id) <= MAX_REQUEST_ID:
        raise ProtocolError(
            f"request id must be in [0, {MAX_REQUEST_ID}], got {request_id}"
        )
    manifest = []
    views: list[memoryview] = []
    body_length = 0
    for name, payload in (arrays or {}).items():
        payload = np.ascontiguousarray(payload)
        if payload.dtype != np.int64 and payload.dtype != np.float64:
            if payload.dtype.kind not in "biuf":
                raise ProtocolError(
                    f"dtype {payload.dtype} is not wire-encodable; use "
                    "float64 or int64"
                )
            payload = np.ascontiguousarray(payload, dtype=np.float64)
        manifest.append(
            {
                "name": str(name),
                "dtype": _wire_dtype(payload),
                "shape": list(payload.shape),
            }
        )
        if payload.size:
            view = memoryview(payload).cast("B")
            views.append(view)
            body_length += view.nbytes
        # zero-size payloads contribute no body bytes (and memoryview
        # cannot cast shapes containing zeros)
    header = _HEADER_ENCODER.encode({**fields, "arrays": manifest}).encode("utf-8")
    frame_length = PRELUDE.size + len(header) + body_length
    if frame_length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {frame_length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    prelude = PRELUDE.pack(
        MAGIC, PROTOCOL_VERSION, 0, int(request_id), len(header), body_length
    )
    # The join is the one copy of each payload.
    return b"".join((prelude, header, *views))


def _decode_prelude(prelude: bytes) -> tuple[int, int, int]:
    """Validate a 16-byte prelude.

    Returns ``(request_id, header_length, body_length)``.
    """
    try:
        magic, version, flags, request_id, header_length, body_length = (
            PRELUDE.unpack(prelude)
        )
    except struct.error as broken:
        raise ProtocolError(f"truncated frame prelude: {broken}") from None
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (speaking "
            f"{PROTOCOL_VERSION})"
        )
    if flags != 0:
        raise ProtocolError("reserved prelude bits are set")
    if PRELUDE.size + header_length + body_length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame of {PRELUDE.size + header_length + body_length} "
            f"bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return request_id, header_length, body_length


def _decode_payload(header_bytes: bytes, body, request_id: int = 0) -> Message:
    """Parse header JSON + body blobs into a :class:`Message`.

    Array payloads come back as reshaped ``np.frombuffer`` views over
    ``body`` — zero copies; the :class:`Message` owns the buffer
    through its arrays' ``.base`` chain.
    """
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as broken:
        raise ProtocolError(f"frame header is not JSON: {broken}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    manifest = header.pop("arrays", [])
    if not isinstance(manifest, list):
        raise ProtocolError("'arrays' must be a list of descriptors")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for descriptor in manifest:
        try:
            name = descriptor["name"]
            dtype = descriptor["dtype"]
            shape = tuple(int(n) for n in descriptor["shape"])
        except (TypeError, KeyError) as broken:
            raise ProtocolError(
                f"malformed array descriptor {descriptor!r}: {broken}"
            ) from None
        if dtype not in _WIRE_DTYPES:
            raise ProtocolError(f"dtype {dtype!r} is not on the wire allowlist")
        if any(n < 0 for n in shape):
            raise ProtocolError(f"negative dimension in shape {shape}")
        count = 1
        for n in shape:
            count *= n
        nbytes = count * 8  # both wire dtypes are 8 bytes wide
        if offset + nbytes > len(body):
            raise ProtocolError(
                f"array {name!r} overruns the frame body "
                f"({offset + nbytes} > {len(body)} bytes)"
            )
        flat = np.frombuffer(body, dtype=np.dtype(dtype), count=count, offset=offset)
        # Zero-copy: a read-only view over the receive buffer. A
        # consumer that must mutate calls Message.writable().
        arrays[str(name)] = flat.reshape(shape)
        offset += nbytes
    if offset != len(body):
        raise ProtocolError(
            f"frame body has {len(body) - offset} undeclared trailing bytes"
        )
    return Message(fields=header, arrays=arrays, request_id=request_id)


def decode_frame(frame: bytes) -> Message:
    """Decode one complete frame (the exact bytes of :func:`encode_frame`)."""
    request_id, header_length, body_length = _decode_prelude(
        frame[: PRELUDE.size]
    )
    if len(frame) != PRELUDE.size + header_length + body_length:
        raise ProtocolError(
            f"frame is {len(frame)} bytes, prelude declares "
            f"{PRELUDE.size + header_length + body_length}"
        )
    header_end = PRELUDE.size + header_length
    # The body is sliced as a memoryview so the decoded arrays alias
    # the caller's frame buffer — a bytes slice would be the copy this
    # codec exists to avoid.
    return _decode_payload(
        frame[PRELUDE.size : header_end],
        memoryview(frame)[header_end:],
        request_id,
    )


class FrameReader:
    """Incremental frame parser for ``asyncio.Protocol`` connections.

    :meth:`feed` buffers whatever bytes arrived; :meth:`next_message`
    takes one whole frame at a time, by the same rules as
    :func:`read_message`, so a caller can stop between frames. Each
    body is copied into its own ``bytes``: decoded arrays stay
    read-only views that outlive the buffer.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def next_message(self) -> Message | None:
        """The next whole message, or None until more bytes arrive;
        :class:`ProtocolError` means the stream lost its framing."""
        buffer = self._buffer
        if len(buffer) < PRELUDE.size:
            return None
        request_id, header_length, body_length = _decode_prelude(
            buffer[: PRELUDE.size]
        )
        header_end = PRELUDE.size + header_length
        frame_end = header_end + body_length
        if len(buffer) < frame_end:
            return None
        with memoryview(buffer) as view:
            header = bytes(view[PRELUDE.size : header_end])
            body = bytes(view[header_end:frame_end])
        del buffer[:frame_end]
        return _decode_payload(header, body, request_id)


async def read_message(reader: asyncio.StreamReader) -> Message | None:
    """Read one frame from a stream.

    Returns None on a clean EOF at a frame boundary (the peer hung
    up). EOF *mid-frame* raises :class:`ConnectionResetError` — the
    peer died, which is a transport failure the client may retry —
    while malformed bytes raise :class:`ProtocolError`, which is never
    retriable.
    """
    try:
        prelude = await reader.readexactly(PRELUDE.size)
    except asyncio.IncompleteReadError as eof:
        if not eof.partial:
            return None
        raise ConnectionResetError(
            f"connection closed mid-prelude ({len(eof.partial)} bytes)"
        ) from None
    request_id, header_length, body_length = _decode_prelude(prelude)
    try:
        header_bytes = await reader.readexactly(header_length)
        body = await reader.readexactly(body_length)
    except asyncio.IncompleteReadError as eof:
        raise ConnectionResetError(
            f"connection closed mid-frame ({len(eof.partial)} bytes short)"
        ) from None
    return _decode_payload(header_bytes, body, request_id)


async def write_message(
    writer: asyncio.StreamWriter,
    fields: dict,
    arrays: dict[str, np.ndarray] | None = None,
    request_id: int = 0,
) -> None:
    """Encode one frame, hand it to the transport, then drain.

    The frame is encoded (every payload copied, see
    :func:`encode_frame`) and written before the first await, so a
    caller may mutate the source arrays while ``drain()`` waits out
    the peer's backpressure, and a cancellation during that wait
    finds the frame wholly queued.
    """
    writer.write(encode_frame(fields, arrays, request_id))
    await writer.drain()
