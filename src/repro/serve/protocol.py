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

Framing errors are *typed*, not hangs: a length prefix beyond
:data:`MAX_FRAME_BYTES` or a truncated frame raises
:class:`~repro.core.exceptions.ProtocolError` (the server answers what
it can and closes the connection); an unknown request kind is answered
with a :data:`RESPONSE_ERROR` frame on a connection that stays open.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Optional, Tuple

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
    "array_from_bytes",
    "array_to_bytes",
    "encode_error",
    "encode_frame",
    "parse_payload",
    "payload_length",
    "recv_frame",
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

# Request kinds.
REQUEST_PING = 0x01
REQUEST_DISK_OF = 0x02
REQUEST_BATCH_RT = 0x03
REQUEST_DEGRADED_PLAN = 0x04
REQUEST_STATS = 0x05

# Response kinds.
RESPONSE_OK = 0x80
RESPONSE_ERROR = 0x81


def encode_frame(
    kind: int, header: Optional[Dict[str, Any]] = None, body: bytes = b""
) -> bytes:
    """Serialize one frame (used identically by server and clients)."""
    header_bytes = json.dumps(
        header or {}, separators=(",", ":")
    ).encode("utf-8")
    payload_len = _PAYLOAD_FIXED + len(header_bytes) + len(body)
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
            body,
        )
    )


def encode_error(error: str, message: str) -> bytes:
    """A typed error response frame (connection-preserving)."""
    return encode_frame(
        RESPONSE_ERROR, {"error": error, "message": message}
    )


def parse_payload(
    payload: bytes,
) -> Tuple[int, Dict[str, Any], bytes]:
    """Split a received payload into (kind, header, body).

    Raises :class:`ProtocolError` on any structural violation — short
    payload, header length pointing past the end, or a header that is
    not a JSON object.
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
    try:
        header = json.loads(
            payload[_PAYLOAD_FIXED:body_start].decode("utf-8") or "{}"
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not valid JSON: {exc}")
    if not isinstance(header, dict):
        raise ProtocolError(
            f"header must be a JSON object, got {type(header).__name__}"
        )
    return kind, header, payload[body_start:]


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


def recv_frame(sock) -> Optional[Tuple[int, Dict[str, Any], bytes]]:
    """Read one frame from a blocking socket.

    Returns None on a clean EOF (the peer closed between frames);
    raises :class:`ProtocolError` for a truncated frame or an oversized
    length prefix.
    """

    def _recv_exactly(count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    prefix = _recv_exactly(PREFIX_BYTES)
    if not prefix:
        return None
    if len(prefix) < PREFIX_BYTES:
        raise ProtocolError(
            f"connection closed mid-prefix ({len(prefix)}/4 bytes)"
        )
    length = payload_length(prefix)
    payload = _recv_exactly(length)
    if len(payload) < length:
        raise ProtocolError(
            f"connection closed mid-frame "
            f"({len(payload)}/{length} bytes)"
        )
    return parse_payload(payload)


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
