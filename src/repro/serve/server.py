"""The asyncio declustering daemon: preload once, serve forever.

Life of the server:

1. **Startup** — every configured ``(scheme, grid, M)`` spec is
   materialized **once** through :func:`~repro.core.cache.global_cache`
   (allocation table plus summed-area-table engine), then the listening
   socket is bound.
2. **Serving** — a length-prefixed binary protocol
   (:mod:`repro.serve.protocol`) over a Unix socket or TCP.  Each
   connection is an :class:`asyncio.Protocol` (:class:`_Connection`):
   every complete frame is cut out of the bytes it receives as a
   memoryview and answered inline, from the same callback — no reader
   task, no await per frame, no copy of a whole frame.  A connection
   keeps an entry for its last valid batch header
   (:class:`_PreparedBatch`): a batch under the same header bytes
   skips the JSON decode and the spec lookup, and once the header has
   come twice in a row the entry keeps the bounds buffer, reply frame
   and prepared kernel call it built, so later requests under it skip
   building them.  Four request types —
   ``disk_of``, ``batch_response_times``, ``degraded_plan`` and
   ``stats`` — are each answered on the event loop: a thread hop would
   cost more than a typical batch's kernel, and on a small host a
   second thread buys no parallelism.  While one request is computed
   the loop serves nothing else, so a wide ``degraded_plan`` (its
   planner walks every bucket of the window in Python) delays the
   other connections for its whole run.
3. **Drain** — SIGTERM/SIGINT stops accepting and dispatches no new
   frame, lets in-flight requests complete (bounded by
   ``drain_timeout``), closes the connections once their buffers have
   flushed, and writes the metrics export if configured.  A request is
   in flight until its response has left the transport's buffer.

Observability: every request increments ``serve.requests``, records a
``serve.latency.<type>.seconds`` histogram observation, and (when
tracing is enabled) emits a span for its handler — handlers never
``await``, keeping the tracer's nesting stack sound under connection
interleaving.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.cache import global_cache
from repro.core.exceptions import (
    DeclusteringError,
    ProtocolError,
    QueryError,
    ServeError,
)
from repro.core.grid import Grid
from repro.core.query import RangeQuery
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry
from repro.obs.trace import trace, trace_event
from repro.serve import protocol

_LOG = get_logger("repro.serve.server")

__all__ = [
    "DeclusterServer",
    "SchemeSpec",
    "ServeConfig",
    "parse_spec",
]

#: Default seconds granted to in-flight requests at drain.
DEFAULT_DRAIN_TIMEOUT = 10.0


@dataclass(frozen=True)
class SchemeSpec:
    """One preloaded ``(scheme, grid, M)`` triple."""

    scheme: str
    dims: Tuple[int, ...]
    num_disks: int

    @property
    def key(self) -> Tuple[str, Tuple[int, ...], int]:
        return (self.scheme, self.dims, self.num_disks)

    def render(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        return f"{self.scheme}:{dims}:{self.num_disks}"


def parse_spec(text: str) -> SchemeSpec:
    """Parse ``scheme:DxD[xD...]:M`` (e.g. ``ecc:16x16:8``)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ServeError(
            f"bad spec {text!r}: expected scheme:GRID:M "
            "(e.g. ecc:16x16:8)"
        )
    scheme, grid_text, disks_text = parts
    try:
        dims = tuple(int(d) for d in grid_text.lower().split("x"))
        num_disks = int(disks_text)
    except ValueError:
        raise ServeError(
            f"bad spec {text!r}: grid must be like 16x16 and M an "
            "integer"
        )
    if not scheme or not dims or any(d <= 0 for d in dims):
        raise ServeError(f"bad spec {text!r}")
    if num_disks <= 0:
        raise ServeError(f"bad spec {text!r}: M must be positive")
    return SchemeSpec(scheme=scheme, dims=dims, num_disks=num_disks)


@dataclass
class ServeConfig:
    """Everything the daemon needs to start."""

    specs: List[SchemeSpec]
    unix_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    metrics_out: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise ServeError("serve needs at least one --spec")
        if self.unix_path is None and self.host is None:
            raise ServeError("serve needs --unix PATH or --host/--port")


#: ``(scheme, dims, num_disks)`` — how requests name a preloaded spec.
_SpecKey = Tuple[str, Tuple[int, ...], int]

_REQUEST_NAMES = {
    protocol.REQUEST_PING: "ping",
    protocol.REQUEST_DISK_OF: "disk_of",
    protocol.REQUEST_BATCH_RT: "batch_response_times",
    protocol.REQUEST_DEGRADED_PLAN: "degraded_plan",
    protocol.REQUEST_STATS: "stats",
}


class DeclusterServer:
    """One daemon instance: preloaded engines behind an asyncio server."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self._engines: Dict[_SpecKey, Any] = {}
        self._allocations: Dict[_SpecKey, Any] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._busy_requests = 0
        self._draining = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._idle_event: Optional[asyncio.Event] = None
        self._connections: Set["_Connection"] = set()
        #: (spec key, offset mod M) -> its chained ReplicatedAllocation,
        #: built on the first degraded_plan that asks for it.
        self._replicas: Dict[Tuple[_SpecKey, int], Any] = {}
        self._started = time.monotonic()
        self.bound_address: Optional[Tuple[str, int]] = None

    # -- startup ------------------------------------------------------

    def _preload(self) -> None:
        """Materialize every spec once into the process-wide cache."""
        cache = global_cache()
        for spec in self.config.specs:
            grid = Grid(spec.dims)
            with trace("serve.preload", spec=spec.render()):
                allocation = cache.allocation(
                    spec.scheme, grid, spec.num_disks
                )
                engine = cache.engine(spec.scheme, grid, spec.num_disks)
            self._allocations[spec.key] = allocation
            self._engines[spec.key] = engine
            _LOG.info(
                "preloaded %s (%d buckets, SAT %d bytes)",
                spec.render(), grid.num_buckets, engine.nbytes(),
            )

    async def start(self) -> None:
        """Preload, then bind the listening socket."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._preload()
        if self.config.unix_path is not None:
            self._server = await self._loop.create_unix_server(
                lambda: _Connection(self), path=self.config.unix_path
            )
        else:
            self._server = await self._loop.create_server(
                lambda: _Connection(self),
                host=self.config.host,
                port=self.config.port,
            )
            sock = self._server.sockets[0]
            self.bound_address = sock.getsockname()[:2]
        _LOG.info(
            "serving %d spec(s) on %s",
            len(self.config.specs),
            self.config.unix_path or self.bound_address,
        )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (CLI path; needs main thread)."""
        import signal

        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent, loop-thread only)."""
        if self._draining:
            return
        self._draining = True
        _LOG.info(
            "drain requested: %d request(s) in flight",
            self._busy_requests,
        )
        if self._server is not None:
            self._server.close()
        assert self._shutdown_event is not None
        self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        """Run until a drain is requested, then tear down in order."""
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        # Let in-flight requests finish (bounded), then close the
        # connections: each transport flushes its buffer first.
        assert self._idle_event is not None
        try:
            await asyncio.wait_for(
                self._idle_event.wait(),
                timeout=self.config.drain_timeout,
            )
        except asyncio.TimeoutError:
            _LOG.warning(
                "drain timeout: %d request(s) abandoned",
                self._busy_requests,
            )
            global_registry().inc("serve.drain_timeouts")
        connections = list(self._connections)
        for connection in connections:
            connection.transport.close()
        if connections:
            _done, unflushed = await asyncio.wait(
                [connection.closed for connection in connections],
                timeout=self.config.drain_timeout,
            )
            if unflushed:
                _LOG.warning("drain timeout: unflushed responses dropped")
                for connection in connections:
                    connection.transport.abort()
                await asyncio.sleep(0)
        assert self._server is not None
        await self._server.wait_closed()
        self.teardown()

    def teardown(self) -> None:
        """Export metrics if configured (idempotent)."""
        if self.config.metrics_out:
            registry = global_registry()
            global_cache().publish_metrics(registry)
            registry.write_json(self.config.metrics_out)
            _LOG.info(
                "metrics written to %s", self.config.metrics_out
            )

    # -- request plumbing ---------------------------------------------

    def _enter_request(self) -> None:
        self._busy_requests += 1
        assert self._idle_event is not None
        self._idle_event.clear()

    def _exit_request(self) -> None:
        self._busy_requests -= 1
        if self._busy_requests == 0:
            assert self._idle_event is not None
            self._idle_event.set()

    def _answer(
        self, payload: memoryview, connection: "_Connection"
    ) -> bytes:
        """The response frame for one framed request payload.

        A batch whose header bytes equal the connection's entry reuses
        it and skips the JSON step; every other header is decoded here.
        A batch header that resolves (a preloaded spec and a ``count``)
        becomes the connection's entry.
        """
        try:
            kind, header_bytes, body = protocol.split_payload(payload)
            header: Any
            if kind == protocol.REQUEST_BATCH_RT:
                header = connection.batch
                if header is None or header_bytes != header.header_bytes:
                    header = _PreparedBatch(
                        header_bytes, protocol.parse_header(header_bytes)
                    )
            else:
                header = protocol.parse_header(header_bytes)
        except ProtocolError as exc:
            # Malformed but well framed: the stream offsets still hold,
            # so the error is answered in band and the connection stays;
            # it counts as a failed request, like a bad body size.
            registry = global_registry()
            registry.inc("serve.requests")
            registry.inc("serve.errors")
            return protocol.encode_error("ProtocolError", str(exc))
        reply = self._dispatch(kind, header, body)
        if kind == protocol.REQUEST_BATCH_RT and header.engine is not None:
            connection.batch = header
        return reply

    def _dispatch(
        self, kind: int, header: Any, body: memoryview
    ) -> bytes:
        registry = global_registry()
        name = _REQUEST_NAMES.get(kind)
        registry.inc("serve.requests")
        started = time.perf_counter()
        try:
            if name is None:
                registry.inc("serve.errors")
                return protocol.encode_error(
                    "ProtocolError",
                    f"unknown request kind 0x{kind:02x}",
                )
            handler = getattr(self, f"_req_{name}")
            return handler(header, body)
        except ProtocolError as exc:
            registry.inc("serve.errors")
            return protocol.encode_error("ProtocolError", str(exc))
        except DeclusteringError as exc:
            registry.inc("serve.errors")
            return protocol.encode_error(type(exc).__name__, str(exc))
        finally:
            latency = time.perf_counter() - started
            if name is not None:
                registry.observe(
                    f"serve.latency.{name}.seconds", latency
                )
                trace_event(
                    "serve.request", request=name, latency_s=latency
                )

    # -- request handlers ---------------------------------------------

    def _spec_engine(self, header: Dict[str, Any]):
        key = self._spec_key(header)
        engine = self._engines.get(key)
        if engine is None:
            raise ServeError(
                f"no preloaded spec matches {key[0]}:"
                f"{'x'.join(str(d) for d in key[1])}:{key[2]} — "
                "start the server with a --spec for it"
            )
        return key, engine

    @staticmethod
    def _spec_key(header: Dict[str, Any]):
        try:
            scheme = str(header["scheme"])
            dims = tuple(map(int, header["dims"]))
            num_disks = int(header["num_disks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"header missing/invalid scheme/dims/num_disks: {exc}"
            )
        return (scheme, dims, num_disks)

    def _req_ping(
        self,
        header: Dict[str, Any],
        body: memoryview,
    ) -> bytes:
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {"version": protocol.PROTOCOL_VERSION, "pid": os.getpid()},
        )

    def _req_disk_of(
        self,
        header: Dict[str, Any],
        body: memoryview,
    ) -> bytes:
        key, _engine = self._spec_engine(header)
        allocation = self._allocations[key]
        dims = key[1]
        count = len(body) // (8 * len(dims))
        with trace("serve.disk_of", count=count):
            coords = protocol.array_from_bytes(
                body, (count, len(dims))
            )
            dims_arr = np.asarray(dims, dtype=np.int64)
            if coords.size and (
                (coords < 0).any() or (coords >= dims_arr).any()
            ):
                raise ProtocolError(
                    "disk_of coordinates outside the grid"
                )
            disks = allocation.table[
                tuple(coords.T)
            ].astype(np.int64)
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {"count": int(count)},
            protocol.array_to_bytes(disks),
        )

    def _req_batch_response_times(
        self, prepared: "_PreparedBatch", body: memoryview
    ) -> bytearray:
        if prepared.engine is None:
            # A header this connection has not resolved: the spec lookup
            # and the count check run as for any request.
            key, engine = self._spec_engine(prepared.header)
            try:
                count = int(prepared.header["count"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"header missing/invalid count: {exc}"
                )
            prepared.resolve(engine, count, len(key[1]))
        return prepared.reply_to(body)

    def _req_degraded_plan(
        self,
        header: Dict[str, Any],
        body: memoryview,
    ) -> bytes:
        key, _engine = self._spec_engine(header)
        allocation = self._allocations[key]
        try:
            lower = tuple(int(c) for c in header["lower"])
            upper = tuple(int(c) for c in header["upper"])
            failed = tuple(int(d) for d in header.get("failed", ()))
            method = str(header.get("method", "flow"))
            offset = int(header.get("offset", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"degraded_plan header invalid: {exc}"
            )

        from repro.faults.models import FailStop, FaultScenario
        from repro.replication.planner import plan_query

        replicated = self._replicated(key, allocation, offset)
        scenario = None
        if failed:
            scenario = FaultScenario(key[2], [FailStop(failed)])
        with trace(
            "serve.degraded_plan", method=method, failed=len(failed)
        ):
            plan = plan_query(
                replicated,
                RangeQuery(lower, upper),
                method=method,
                scenario=scenario,
            )
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {
                "response_time": int(plan.response_time),
                "completion_time": float(plan.completion_time),
                "num_lost": int(plan.num_lost),
                "loads": [int(load) for load in plan.loads],
            },
        )

    def _replicated(self, key: _SpecKey, allocation, offset: int):
        """The spec's chained replication at ``offset`` (built once).

        Only ``offset mod M`` matters, so a spec has at most ``M - 1``
        of them; an offset that maps both copies to one disk raises on
        every request and is never stored.
        """
        from repro.replication.allocation import chained_replication

        shift = offset % key[2]
        replicated = self._replicas.get((key, shift))
        if replicated is None:
            replicated = chained_replication(allocation, offset=shift)
            self._replicas[(key, shift)] = replicated
        return replicated

    def _req_stats(
        self,
        header: Dict[str, Any],
        body: memoryview,
    ) -> bytes:
        registry = global_registry()
        counters = registry.aggregate_counters()
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {
                "version": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime_s": time.monotonic() - self._started,
                "draining": self._draining,
                "inflight": self._busy_requests,
                "specs": [
                    spec.render() for spec in self.config.specs
                ],
                "counters": {
                    name: int(value)
                    for name, value in sorted(counters.items())
                    if name.startswith(("serve.", "cache."))
                },
            },
        )


def _check_batch_body(size: int, count: int, ndim: int) -> None:
    """Raise unless ``size`` bytes hold two int64 ``(count, ndim)`` arrays."""
    if size != 2 * count * ndim * 8:
        raise ProtocolError(
            f"batch body of {size} bytes does not hold two "
            f"int64 ({count}, {ndim}) arrays"
        )


class _PreparedBatch:
    """A connection's batch header, what it resolved to, and its buffers.

    Made from a header's raw bytes and decoded JSON; :meth:`resolve`
    adds the engine, the query count and the arity once the header has
    passed the daemon's checks.  Every request under the header is
    answered the same way: its body is copied into an aligned bounds
    buffer, and the engine's prepared wire call writes the answers into
    the body of a reply frame (length prefix, kind and padded
    ``{"count": N}`` header).  The entry keeps those three — buffer,
    call and reply — from the header's second request in a row on, so
    each further request is one copy of its body, one kernel call and
    one write of the same reply buffer; before that, a request builds
    them for itself alone, which costs what answering a one-off batch
    costs.  Traffic whose header changes on every request thus keeps
    nothing.  Nor does an entry whose buffers would exceed
    :data:`~repro.serve.protocol.RECV_BUFFER_BYTES`, so an idle
    connection holds no large batch's buffers.  A kept reply buffer is
    rewritten only after the previous reply has left the transport: a
    reply the socket cannot take at once pauses the connection until
    it has.
    """

    __slots__ = (
        "header_bytes",
        "header",
        "engine",
        "count",
        "ndim",
        "seen",
        "reply",
        "answer",
        "_bounds",
    )

    def __init__(self, header_bytes: Any, header: Dict[str, Any]):
        self.header_bytes = bytes(header_bytes)
        self.header = header
        self.engine: Any = None
        self.count = 0
        self.ndim = 0
        #: Whether a request has been answered under this header.
        self.seen = False
        self.reply = bytearray()
        self.answer: Optional[Callable[[], None]] = None
        self._bounds = memoryview(b"")

    def resolve(self, engine: Any, count: int, ndim: int) -> None:
        """Record what a header that passed the checks names."""
        self.engine = engine
        self.count = count
        self.ndim = ndim

    def reply_to(self, body: memoryview) -> bytearray:
        """The reply frame to one request body under this header.

        The body must hold two int64 ``(count, ndim)`` arrays; one
        kernel call checks and clips each row as
        :meth:`~repro.core.query.QueryBatch.clip` does, so the reply is
        byte-identical to the in-process engine.
        """
        size = len(body)
        _check_batch_body(size, self.count, self.ndim)
        answer, bounds, reply = self.answer, self._bounds, self.reply
        if answer is None:
            raw = np.empty(size, dtype=np.uint8)
            reply, times = protocol.frame_with_int64_body(
                protocol.RESPONSE_OK, {"count": self.count}, self.count
            )
            answer = self.engine.wire_call(
                raw.view(np.int64).reshape(2, self.count, self.ndim),
                times,
            )
            bounds = memoryview(raw)
            if (
                self.seen
                and size + len(reply) <= protocol.RECV_BUFFER_BYTES
            ):
                self.answer, self._bounds, self.reply = (
                    answer, bounds, reply
                )
            self.seen = True
        bounds[:] = body
        try:
            answer()
        except QueryError as exc:
            raise ProtocolError(str(exc)) from None
        return reply


class _Connection(asyncio.Protocol):
    """One client connection: frames cut out of the received bytes, inline.

    ``data_received`` answers every complete frame in the bytes the
    transport hands over, in order, from the same callback.  Each frame
    is a memoryview of those bytes, released once it is answered; only
    an incomplete trailing frame is copied, into the carry-over buffer,
    and the next bytes are appended to it.  Nothing else views that
    buffer when it is resized.  The connection keeps one
    :class:`_PreparedBatch`, for its last valid batch header.  The
    transport's high-water mark is 0, so a reply the socket cannot take
    at once is bracketed by ``pause_writing`` / ``resume_writing``:
    reads pause, no further frame is answered, and the request stays
    in flight until its last byte has left the transport buffer.  A
    framing violation (an oversized length prefix, EOF inside a frame)
    is answered with a best-effort error frame and closes the
    connection, since the stream offsets are lost.  Once a drain
    starts, received bytes are dropped unread.
    """

    def __init__(self, server: DeclusterServer):
        self._server = server
        #: The carry-over: an incomplete frame's bytes received so far.
        self._buffer = bytearray()
        self._paused = False
        #: Whether a request's reply is still in the transport buffer.
        self._holding = False
        #: The entry of the last valid batch header.
        self.batch: Optional[_PreparedBatch] = None
        self.transport: Any = None
        assert server._loop is not None
        #: Resolved once the connection is lost (drain waits on it).
        self.closed: "asyncio.Future[None]" = server._loop.create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        transport.set_write_buffer_limits(high=0)
        self._server._connections.add(self)
        global_registry().inc("serve.connections")

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is not None:
            _LOG.debug("connection lost: %r", exc)
        self._server._connections.discard(self)
        self._release()
        if not self.closed.done():
            self.closed.set_result(None)

    def pause_writing(self) -> None:
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._release()
        if not self.transport.is_closing():
            self.transport.resume_reading()
            self._answer_frames(self._buffer)

    def data_received(self, data: bytes) -> None:
        if self._server._draining:
            # No frame is answered any more: drop what arrives rather
            # than buffer it until the drain closes the connection.
            return
        if self._buffer:
            self._buffer += data
            data = self._buffer
        self._answer_frames(data)

    def eof_received(self) -> None:
        buffer = self._buffer
        if buffer and not self._server._draining:
            if len(buffer) < protocol.PREFIX_BYTES:
                where = f"mid-prefix ({len(buffer)}/4 bytes)"
            else:
                where = (
                    f"mid-frame ({len(buffer) - protocol.PREFIX_BYTES}/"
                    f"{protocol.payload_length(buffer)} bytes)"
                )
            self._fail(ProtocolError(f"connection closed {where}"))
        # Returning None closes the transport once its buffer flushed.

    def _answer_frames(self, data: Any) -> None:
        """Answer the complete frames in ``data``; carry the rest over.

        ``data`` is either the bytes just received or the carry-over
        buffer itself.
        """
        server = self._server
        transport = self.transport
        size = len(data)
        start = 0
        failure: Optional[ProtocolError] = None
        with memoryview(data) as view:
            try:
                while not (
                    self._paused
                    or server._draining
                    or transport.is_closing()
                ):
                    body_start = start + protocol.PREFIX_BYTES
                    if size < body_start:
                        break
                    end = body_start + protocol.payload_length(view, start)
                    if size < end:
                        break
                    with view[body_start:end] as payload:
                        self._reply(payload)
                    start = end
            except ProtocolError as exc:
                failure = exc
            if data is not self._buffer and start < size:
                self._buffer += view[start:]
        if failure is not None:
            self._fail(failure)
        elif data is self._buffer and start:
            del self._buffer[:start]

    def _reply(self, payload: memoryview) -> None:
        server = self._server
        server._enter_request()
        try:
            self.transport.write(server._answer(payload, self))
        finally:
            if self._paused:
                # pause_writing ran inside write(): the reply is still
                # buffered, and resume_writing or connection_lost
                # finishes the request.
                self._holding = True
            else:
                server._exit_request()

    def _release(self) -> None:
        if self._holding:
            self._holding = False
            self._server._exit_request()

    def _fail(self, exc: ProtocolError) -> None:
        global_registry().inc("serve.protocol_errors")
        self._buffer.clear()
        self.transport.write(
            protocol.encode_error("ProtocolError", str(exc))
        )
        self.transport.close()


async def run_server(config: ServeConfig) -> None:
    """CLI entry: start, install signal handlers, serve, drain."""
    server = DeclusterServer(config)
    await server.start()
    server.install_signal_handlers()
    # Readiness marker on stdout (supervisors and load generators read
    # it there): printed only after the socket is bound and every spec
    # is preloaded.
    print(
        f"serve: ready pid={os.getpid()} "
        f"addr={config.unix_path or server.bound_address}",
        flush=True,
    )
    await server.serve_until_shutdown()
