"""Wire format of the serve daemon: length-prefixed binary frames.

One frame is::

    u32  payload_len   (big-endian; everything after these 4 bytes)
    u8   kind          (request/response type)
    u32  header_len    (big-endian)
    ...  header        (header_len bytes of UTF-8 JSON)
    ...  body          (payload_len - 5 - header_len raw bytes)

The JSON header carries the small structured part of a message (scheme
name, grid dims, counts, error details); the body carries bulk numpy
data — int64 arrays in C order, exactly as ``ndarray.tobytes()`` emits
them — so a 1024-query batch costs one ~16 KiB read on either side and
zero per-element JSON.

Both ends cut frames without copying them: :func:`split_payload` returns
the header and body as slices of whatever it is given (memoryviews of a
receive buffer, on the hot paths), and :func:`parse_header` decodes a
header only when asked.  A peer that sends the same header bytes again
(a client's repeated batch) can therefore skip the JSON step by
comparing bytes.  :class:`FrameReader` is the one blocking receive path:
``recv_into`` on a buffer it owns and grows, so a reply that has fully
arrived is read with one system call.  :func:`send_parts` sends a frame
given as several buffers (an encoded prefix and the bodies' arrays) with
one ``sendmsg``.

Framing errors are *typed*, not hangs: a length prefix beyond
:data:`MAX_FRAME_BYTES` or a truncated frame raises
:class:`~repro.core.exceptions.ProtocolError` (the server answers what
it can and closes the connection); an unknown request kind is answered
with a :data:`RESPONSE_ERROR` frame on a connection that stays open.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "PREFIX_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_BATCH_RT",
    "REQUEST_DEGRADED_PLAN",
    "REQUEST_DISK_OF",
    "REQUEST_PING",
    "REQUEST_STATS",
    "RESPONSE_ERROR",
    "RESPONSE_OK",
    "FrameReader",
    "array_from_bytes",
    "array_to_bytes",
    "encode_error",
    "encode_frame",
    "frame_prefix",
    "frame_with_int64_body",
    "parse_header",
    "parse_payload",
    "payload_length",
    "recv_frame",
    "send_parts",
    "split_payload",
]

#: Bumped when the frame layout changes incompatibly.  Carried in every
#: ``ping``/``stats`` response header so clients can refuse a mismatch.
PROTOCOL_VERSION = 1

#: Hard cap on one frame's payload.  Large enough for a ~1M-query batch
#: (two int64 (N, k) arrays), small enough that a hostile or corrupt
#: length prefix cannot make the server buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")
#: Size of the length prefix in front of every payload.
PREFIX_BYTES = _LEN.size
_KIND_AND_HEADER = struct.Struct(">BI")
#: kind byte + header_len word — the fixed part of every payload.
_PAYLOAD_FIXED = _KIND_AND_HEADER.size

#: One compact encoder for every header: ``json.dumps`` with
#: ``separators`` would build a fresh encoder per call.
_HEADER_JSON = json.JSONEncoder(separators=(",", ":"))

#: One decoder for every header: ``json.loads`` checks its arguments
#: on every call before handing the text to the same default decoder.
_HEADER_DECODER = json.JSONDecoder()

#: Initial receive buffer of a :class:`FrameReader` that may read ahead
#: (a client's): a reply up to this size is read with one ``recv_into``.
RECV_BUFFER_BYTES = 64 * 1024

# Request kinds.
REQUEST_PING = 0x01
REQUEST_DISK_OF = 0x02
REQUEST_BATCH_RT = 0x03
REQUEST_DEGRADED_PLAN = 0x04
REQUEST_STATS = 0x05

# Response kinds.
RESPONSE_OK = 0x80
RESPONSE_ERROR = 0x81


def frame_prefix(
    kind: int, header: Optional[Dict[str, Any]], body_len: int
) -> bytes:
    """Everything of a frame in front of its ``body_len``-byte body.

    The length prefix, the kind, the header length and the JSON header:
    a sender that keeps it sends each new body behind the same bytes.
    """
    header_bytes = _HEADER_JSON.encode(header or {}).encode("utf-8")
    payload_len = _PAYLOAD_FIXED + len(header_bytes) + body_len
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return b"".join(
        (
            _LEN.pack(payload_len),
            _KIND_AND_HEADER.pack(kind, len(header_bytes)),
            header_bytes,
        )
    )


def encode_frame(
    kind: int, header: Optional[Dict[str, Any]] = None, body: bytes = b""
) -> bytes:
    """Serialize one frame (used identically by server and clients)."""
    return frame_prefix(kind, header, len(body)) + body


def frame_with_int64_body(
    kind: int, header: Dict[str, Any], count: int
) -> Tuple[bytearray, np.ndarray]:
    """One frame with room for a ``count``-long int64 body, filled later.

    Returns the frame and a writable ``(count,)`` int64 view of its
    body, so a handler writes its answer straight into the reply.  The
    JSON header is padded with spaces (still valid JSON to
    :func:`parse_payload`) so that the body starts 8-byte aligned from
    the frame's first byte.
    """
    header_bytes = _HEADER_JSON.encode(header).encode("utf-8")
    fixed = PREFIX_BYTES + _PAYLOAD_FIXED
    header_len = len(header_bytes) + (-(fixed + len(header_bytes)) % 8)
    body_start = fixed + header_len
    payload_len = body_start - PREFIX_BYTES + 8 * count
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    frame = bytearray(PREFIX_BYTES + payload_len)
    _LEN.pack_into(frame, 0, payload_len)
    _KIND_AND_HEADER.pack_into(frame, PREFIX_BYTES, kind, header_len)
    frame[fixed:body_start] = header_bytes.ljust(header_len)
    body = np.frombuffer(
        frame, dtype=np.int64, count=count, offset=body_start
    )
    return frame, body


def encode_error(error: str, message: str) -> bytes:
    """A typed error response frame (connection-preserving)."""
    return encode_frame(
        RESPONSE_ERROR, {"error": error, "message": message}
    )


def split_payload(payload) -> Tuple[int, Any, Any]:
    """Split a received payload into (kind, header bytes, body).

    The header bytes and the body are slices of ``payload``: views,
    when it is a memoryview.  Raises :class:`ProtocolError` on a short
    payload or a header length pointing past its end.
    """
    if len(payload) < _PAYLOAD_FIXED:
        raise ProtocolError(
            f"payload of {len(payload)} bytes is shorter than the "
            f"{_PAYLOAD_FIXED}-byte fixed part"
        )
    kind, header_len = _KIND_AND_HEADER.unpack_from(payload)
    body_start = _PAYLOAD_FIXED + header_len
    if body_start > len(payload):
        raise ProtocolError(
            f"header length {header_len} overruns the "
            f"{len(payload)}-byte payload"
        )
    return kind, payload[_PAYLOAD_FIXED:body_start], payload[body_start:]


def parse_header(header_bytes) -> Dict[str, Any]:
    """Decode a frame's JSON header; an empty one is ``{}``.

    Raises :class:`ProtocolError` unless the bytes are UTF-8 JSON of an
    object.
    """
    try:
        header = _HEADER_DECODER.decode(str(header_bytes, "utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not valid JSON: {exc}")
    if not isinstance(header, dict):
        raise ProtocolError(
            f"header must be a JSON object, got {type(header).__name__}"
        )
    return header


def parse_payload(
    payload: bytes,
) -> Tuple[int, Dict[str, Any], bytes]:
    """Split a received payload into (kind, header, body).

    Raises :class:`ProtocolError` on any structural violation — short
    payload, header length pointing past the end, or a header that is
    not a JSON object.
    """
    kind, header_bytes, body = split_payload(payload)
    return kind, parse_header(header_bytes), body


def payload_length(prefix, offset: int = 0) -> int:
    """The payload length a frame's 4-byte prefix at ``offset`` announces.

    Raises :class:`ProtocolError` when it exceeds
    :data:`MAX_FRAME_BYTES`: a hostile or corrupt prefix is refused
    before anything is buffered for it.
    """
    (length,) = _LEN.unpack_from(prefix, offset)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"length prefix {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return length


class FrameReader:
    """Frames from a blocking socket, received into one buffer it owns.

    Each :meth:`read` calls ``recv_into`` on the free end of the buffer
    until it holds the next whole frame.  The buffer grows to fit the
    largest frame seen; bytes read past a frame's end are kept for the
    next :meth:`read`.  A reader made with ``size=PREFIX_BYTES`` never
    reads past a frame: it asks for the prefix alone, then grows to
    exactly the frame (this is how :func:`recv_frame` leaves the next
    frame in the socket).
    """

    def __init__(self, sock, size: int = RECV_BUFFER_BYTES):
        self._sock = sock
        self._buffer = bytearray(size)
        self._view = memoryview(self._buffer)
        #: The received bytes not yet returned: ``_buffer[_start:_end]``.
        self._start = 0
        self._end = 0

    def read(self) -> Optional[Tuple[int, Dict[str, Any], memoryview]]:
        """The next frame as ``(kind, header, body)``, or None on EOF.

        None means the peer closed between frames.  ``body`` is a view
        of the reader's buffer, valid until the next :meth:`read`.  Raises
        :class:`ProtocolError` for a truncated frame or an oversized
        length prefix.
        """
        if not self._receive(PREFIX_BYTES):
            return None
        length = payload_length(self._buffer, self._start)
        self._receive(PREFIX_BYTES + length)
        start = self._start + PREFIX_BYTES
        end = start + length
        if end == self._end:
            self._start = self._end = 0
        else:
            self._start = end
        kind, header_bytes, body = split_payload(self._view[start:end])
        return kind, parse_header(header_bytes), body

    def _receive(self, size: int) -> bool:
        """Receive until the frame's first ``size`` bytes are buffered.

        Returns False on an EOF before the frame's first byte.
        """
        start, end = self._start, self._end
        if start + size > len(self._buffer):
            held = end - start
            if max(size, held) > len(self._buffer):
                buffer = bytearray(max(size, held))
                buffer[:held] = self._view[start:end]
                self._buffer = buffer
                self._view = memoryview(buffer)
            else:
                self._buffer[:held] = self._buffer[start:end]
            start, end = 0, held
            self._start, self._end = 0, held
        while end - start < size:
            received = self._sock.recv_into(self._view[end:])
            if not received:
                got = end - start
                if got == 0:
                    return False
                if got < PREFIX_BYTES:
                    raise ProtocolError(
                        f"connection closed mid-prefix ({got}/4 bytes)"
                    )
                raise ProtocolError(
                    f"connection closed mid-frame "
                    f"({got - PREFIX_BYTES}/{size - PREFIX_BYTES} bytes)"
                )
            end += received
            self._end = end
        return True


def recv_frame(sock) -> Optional[Tuple[int, Dict[str, Any], bytes]]:
    """Read one frame from a blocking socket, and nothing past it.

    Returns None on a clean EOF (the peer closed between frames);
    raises :class:`ProtocolError` for a truncated frame or an oversized
    length prefix.
    """
    frame = FrameReader(sock, size=PREFIX_BYTES).read()
    if frame is None:
        return None
    kind, header, body = frame
    return kind, header, bytes(body)


def _byte_view(part: Any) -> memoryview:
    """``part``'s bytes as a flat view (a zero-size part as an empty one)."""
    view = memoryview(part)
    return view.cast("B") if view.nbytes else memoryview(b"")


def send_parts(sock, parts: Sequence[Any], size: int) -> None:
    """Send the ``size`` bytes of ``parts`` (bytes or C-contiguous arrays).

    One ``sendmsg`` sends them all when the socket takes them; what it
    leaves unsent is sent by further calls.
    """
    sent = sock.sendmsg(parts)
    if sent == size:
        return
    views = [_byte_view(part) for part in parts]
    remaining = size - sent
    while remaining:
        while sent >= len(views[0]):
            sent -= len(views.pop(0))
        views[0] = views[0][sent:]
        sent = sock.sendmsg(views)
        remaining -= sent


def array_to_bytes(array: np.ndarray) -> bytes:
    """An int64 array as raw C-order bytes (the body encoding)."""
    return np.ascontiguousarray(array, dtype=np.int64).tobytes()


def array_from_bytes(
    data: bytes, shape: Tuple[int, ...]
) -> np.ndarray:
    """Decode an int64 body back into ``shape``; typed error on mismatch."""
    expected = 8
    for extent in shape:
        expected *= int(extent)
    if len(data) != expected:
        raise ProtocolError(
            f"body of {len(data)} bytes does not match int64 array "
            f"of shape {tuple(shape)} ({expected} bytes)"
        )
    return np.frombuffer(data, dtype=np.int64).reshape(shape).copy()
