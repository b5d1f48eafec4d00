"""The asyncio declustering daemon: preload once, serve forever.

Life of the server:

1. **Startup** — every configured ``(scheme, grid, M)`` spec is
   materialized **once** through :func:`~repro.core.cache.global_cache`
   (allocation table plus summed-area-table engine), then the listening
   socket is bound.
2. **Serving** — a length-prefixed binary protocol
   (:mod:`repro.serve.protocol`) over a Unix socket or TCP.  Four
   request types — ``disk_of``, ``batch_response_times``,
   ``degraded_plan`` and ``stats`` — each answered inline on the event
   loop: a thread hop would cost more than a typical batch's kernel, and
   on a small host a second thread buys no parallelism.  While one
   request is computed the loop serves nothing else, so a wide
   ``degraded_plan`` (its planner walks every bucket of the window in
   Python) delays the other connections for its whole run.
3. **Drain** — SIGTERM/SIGINT stops accepting, lets in-flight requests
   complete (bounded by ``drain_timeout``), and writes the metrics
   export if configured.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cache import global_cache
from repro.core.exceptions import (
    DeclusteringError,
    ProtocolError,
    ServeError,
)
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
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
        self._engines: Dict[Tuple[str, Tuple[int, ...], int], Any] = {}
        self._allocations: Dict[
            Tuple[str, Tuple[int, ...], int], Any
        ] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._busy_requests = 0
        self._draining = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._idle_event: Optional[asyncio.Event] = None
        self._connections: set = set()
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
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
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
        assert self._server is not None
        await self._server.wait_closed()
        # Let in-flight requests finish (bounded), then drop the
        # connections still open.
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
        # Close what is left and give each transport the drain grace
        # period to flush its buffer before the loop goes away.
        writers = list(self._connections)
        for writer in writers:
            writer.close()
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(writer.wait_closed() for writer in writers),
                    return_exceptions=True,
                ),
                timeout=self.config.drain_timeout,
            )
        except asyncio.TimeoutError:
            _LOG.warning("drain timeout: unflushed responses dropped")
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

    async def _handle_connection(self, reader, writer) -> None:
        registry = global_registry()
        registry.inc("serve.connections")
        self._connections.add(writer)
        try:
            while not self._draining:
                try:
                    frame = await protocol.read_frame(reader)
                except ProtocolError as exc:
                    # Answer what we can, then close: after a framing
                    # violation the stream offsets are untrustworthy.
                    registry.inc("serve.protocol_errors")
                    try:
                        writer.write(
                            protocol.encode_error(
                                "ProtocolError", str(exc)
                            )
                        )
                        await writer.drain()
                    except (ConnectionError, OSError) as write_exc:
                        _LOG.debug(
                            "error response not delivered: %r",
                            write_exc,
                        )
                    return
                if frame is None:
                    return
                kind, header, body = frame
                # A request stays in flight until its response is
                # handed to the socket, so a drain never cuts one off.
                self._enter_request()
                try:
                    response = self._dispatch(kind, header, body)
                    writer.write(response)
                    await writer.drain()
                except (ConnectionError, OSError) as exc:
                    _LOG.debug("response write failed: %r", exc)
                    return
                finally:
                    self._exit_request()
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError) as exc:
                _LOG.debug("connection close: %r", exc)

    def _dispatch(
        self, kind: int, header: Dict[str, Any], body: bytes
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
            dims = tuple(int(d) for d in header["dims"])
            num_disks = int(header["num_disks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"header missing/invalid scheme/dims/num_disks: {exc}"
            )
        return (scheme, dims, num_disks)

    def _req_ping(
        self, header: Dict[str, Any], body: bytes
    ) -> bytes:
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {"version": protocol.PROTOCOL_VERSION, "pid": os.getpid()},
        )

    def _req_disk_of(
        self, header: Dict[str, Any], body: bytes
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

    def _decode_bounds(
        self, header: Dict[str, Any], body: bytes, dims: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Split a batch body into validated inclusive (lower, upper)."""
        try:
            count = int(header["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"header missing/invalid count: {exc}")
        ndim = len(dims)
        half = count * ndim * 8
        if len(body) != 2 * half:
            raise ProtocolError(
                f"batch body of {len(body)} bytes does not hold two "
                f"int64 ({count}, {ndim}) arrays"
            )
        lower = protocol.array_from_bytes(body[:half], (count, ndim))
        upper = protocol.array_from_bytes(body[half:], (count, ndim))
        if count and ((lower < 0).any() or (lower > upper).any()):
            raise ProtocolError(
                "batch bounds must satisfy 0 <= lower <= upper"
            )
        return lower, upper

    def _req_batch_response_times(
        self, header: Dict[str, Any], body: bytes
    ) -> bytes:
        key, engine = self._spec_engine(header)
        dims = key[1]
        lower, upper = self._decode_bounds(header, body, dims)
        # The decoded bounds satisfy clip's precondition, so the batch
        # is the one the in-process path would build from the same
        # queries — and the answers are byte-identical to it.
        times = engine.batch_response_times(
            QueryBatch.clip(lower, upper, dims)
        )
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {"count": int(times.shape[0])},
            protocol.array_to_bytes(times),
        )

    def _req_degraded_plan(
        self, header: Dict[str, Any], body: bytes
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
        from repro.replication.allocation import chained_replication
        from repro.replication.planner import plan_query

        replicated = chained_replication(allocation, offset=offset)
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

    def _req_stats(
        self, header: Dict[str, Any], body: bytes
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


async def run_server(config: ServeConfig) -> None:
    """CLI entry: start, install signal handlers, serve, drain."""
    server = DeclusterServer(config)
    await server.start()
    server.install_signal_handlers()
    # Readiness marker for supervisors tailing stderr: printed only
    # after the socket is bound and every spec is preloaded.
    print(
        f"serve: ready pid={os.getpid()} "
        f"addr={config.unix_path or server.bound_address}",
        flush=True,
    )
    await server.serve_until_shutdown()
