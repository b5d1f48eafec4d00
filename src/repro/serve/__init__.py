"""Declustering-as-a-service: the asyncio query-planning daemon.

The paper evaluates declustering schemes offline — batches of range
queries against a handful of ``(scheme, grid, M)`` triples.  This
package turns that batch engine into a long-running server:

* :mod:`repro.serve.protocol` — the length-prefixed binary wire format
  (JSON header + raw int64 numpy bodies) shared by server and clients;
* :mod:`repro.serve.server` — the asyncio daemon: preloads allocations
  through the :class:`~repro.core.cache.AllocationCache`, answers
  ``disk_of`` / ``batch_response_times`` / ``degraded_plan`` / ``stats``
  requests inline on its event loop, with graceful drain;
* :mod:`repro.serve.client` — the blocking client;
* :mod:`repro.serve.bench` — the closed-loop load generator behind
  ``repro serve-bench`` (p50/p99, throughput, byte-identity audit).
"""

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    REQUEST_BATCH_RT,
    REQUEST_DEGRADED_PLAN,
    REQUEST_DISK_OF,
    REQUEST_PING,
    REQUEST_STATS,
    RESPONSE_ERROR,
    RESPONSE_OK,
    encode_frame,
)
from repro.serve.server import DeclusterServer, ServeConfig, SchemeSpec

__all__ = [
    "MAX_FRAME_BYTES",
    "REQUEST_BATCH_RT",
    "REQUEST_DEGRADED_PLAN",
    "REQUEST_DISK_OF",
    "REQUEST_PING",
    "REQUEST_STATS",
    "RESPONSE_ERROR",
    "RESPONSE_OK",
    "DeclusterServer",
    "SchemeSpec",
    "ServeConfig",
    "encode_frame",
]
