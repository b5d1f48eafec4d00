"""The blocking client for the serve daemon.

:class:`ServeClient` is used by the CLI, the test suite, and the bench
load generator's per-connection threads; it speaks the
:mod:`repro.serve.protocol` frames over a plain socket.

It converts :data:`~repro.serve.protocol.RESPONSE_ERROR` frames into
raised :class:`~repro.core.exceptions.ServeError` /
:class:`~repro.core.exceptions.ProtocolError`, so callers handle server
failures the same way as local library failures.

A batch request is sent as its encoded prefix (length, kind and JSON
header, kept for the last ``(scheme, dims, M, shape)`` asked) followed
by the two bound arrays, in one ``sendmsg``; every reply is read by one
:class:`~repro.serve.protocol.FrameReader` over the connection, whose
buffer usually takes a whole reply in one ``recv_into``.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ProtocolError, ServeError
from repro.serve import protocol

__all__ = ["ServeClient"]


def _raise_for_error(kind: int, header: Dict[str, Any]) -> None:
    if kind != protocol.RESPONSE_ERROR:
        return
    error = str(header.get("error", "ServeError"))
    message = str(header.get("message", "server reported an error"))
    if error == "ProtocolError":
        raise ProtocolError(message)
    raise ServeError(f"{error}: {message}")


class ServeClient:
    """Blocking client over a Unix or TCP socket.

    Usable as a context manager; one instance holds one connection and
    is **not** thread-safe — give each thread its own client.
    """

    def __init__(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        timeout: Optional[float] = 30.0,
    ):
        if unix_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.settimeout(timeout)
                self._sock.connect(unix_path)
            except BaseException:
                self._sock.close()
                raise
        elif host is not None:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        else:
            raise ServeError("ServeClient needs unix_path or host/port")
        self._reader = protocol.FrameReader(self._sock)
        #: The encoded batch prefix and the request it was encoded for.
        self._batch_key: Optional[Tuple[Any, ...]] = None
        self._batch_prefix = b""

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- low-level ----------------------------------------------------

    def raw_request(
        self, data: bytes
    ) -> Optional[Tuple[int, Dict[str, Any], bytes]]:
        """Send pre-encoded bytes, read one response frame (fuzz hook)."""
        self._sock.sendall(data)
        frame = self._reader.read()
        if frame is None:
            return None
        kind, header, body = frame
        return kind, header, bytes(body)

    def request(
        self,
        kind: int,
        header: Optional[Dict[str, Any]] = None,
        body: bytes = b"",
    ) -> Tuple[Dict[str, Any], bytes]:
        """One request/response exchange; raises on typed errors."""
        self._sock.sendall(protocol.encode_frame(kind, header, body))
        response_header, response_body = self._reply()
        return response_header, bytes(response_body)

    def _reply(self) -> Tuple[Dict[str, Any], memoryview]:
        """The next reply's header and body view; raises on errors."""
        frame = self._reader.read()
        if frame is None:
            raise ServeError("server closed the connection")
        kind, header, body = frame
        _raise_for_error(kind, header)
        return header, body

    # -- request types ------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        header, _body = self.request(protocol.REQUEST_PING)
        return header

    def stats(self) -> Dict[str, Any]:
        header, _body = self.request(protocol.REQUEST_STATS)
        return header

    def disk_of(
        self,
        scheme: str,
        dims: Sequence[int],
        num_disks: int,
        coords: np.ndarray,
    ) -> np.ndarray:
        coords = np.ascontiguousarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != len(dims):
            raise ServeError(
                f"coords must be (N, {len(dims)}), got {coords.shape}"
            )
        header, body = self.request(
            protocol.REQUEST_DISK_OF,
            {
                "scheme": scheme,
                "dims": [int(d) for d in dims],
                "num_disks": int(num_disks),
            },
            coords.tobytes(),
        )
        return protocol.array_from_bytes(body, (int(header["count"]),))

    def batch_response_times(
        self,
        scheme: str,
        dims: Sequence[int],
        num_disks: int,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> Tuple[np.ndarray, bool]:
        """Response times for inclusive (lower, upper) query bounds.

        Returns ``(times, shed)``; ``shed`` is always ``False`` (the
        server has no admission limit) and stays for callers that unpack
        the pair.
        """
        lower = np.ascontiguousarray(lower, dtype=np.int64)
        upper = np.ascontiguousarray(upper, dtype=np.int64)
        if lower.shape != upper.shape or lower.ndim != 2:
            raise ServeError(
                f"lower/upper must be matching (N, k) arrays, got "
                f"{lower.shape} and {upper.shape}"
            )
        key = (scheme, tuple(dims), num_disks, lower.shape)
        if key != self._batch_key:
            self._batch_prefix = protocol.frame_prefix(
                protocol.REQUEST_BATCH_RT,
                {
                    "scheme": scheme,
                    "dims": [int(d) for d in dims],
                    "num_disks": int(num_disks),
                    "count": int(lower.shape[0]),
                },
                2 * lower.nbytes,
            )
            self._batch_key = key
        prefix = self._batch_prefix
        protocol.send_parts(
            self._sock,
            (prefix, lower, upper),
            len(prefix) + 2 * lower.nbytes,
        )
        header, body = self._reply()
        times = protocol.array_from_bytes(body, (int(header["count"]),))
        return times, False

    def degraded_plan(
        self,
        scheme: str,
        dims: Sequence[int],
        num_disks: int,
        lower: Sequence[int],
        upper: Sequence[int],
        failed: Sequence[int] = (),
        method: str = "flow",
        offset: int = 1,
    ) -> Dict[str, Any]:
        header, _body = self.request(
            protocol.REQUEST_DEGRADED_PLAN,
            {
                "scheme": scheme,
                "dims": [int(d) for d in dims],
                "num_disks": int(num_disks),
                "lower": [int(c) for c in lower],
                "upper": [int(c) for c in upper],
                "failed": [int(d) for d in failed],
                "method": method,
                "offset": int(offset),
            },
        )
        return header
