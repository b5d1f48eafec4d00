"""Closed-loop load generator for the serve daemon (``repro serve-bench``).

Measures what the paper's offline tables cannot: the *served* cost of a
batch — protocol framing, the event loop, the kernel — under a steady
closed loop.  Each of ``concurrency`` threads owns one
connection and fires pre-encoded batch requests back-to-back for
``duration`` seconds; per-request latencies aggregate into p50/p99 and
the query throughput divides total answered queries by wall time.  The
result names its host (CPU count, Python, numpy) so records from
different machines are not compared blind.

Two phases:

1. **measured** — ``concurrency`` connections, the numbers that land in
   ``BENCH_serve.json``;
2. **overload burst** — ``concurrency * 4`` connections for a short
   window: under overload every answer must still be correct and no
   connection may see a transport error.

Correctness is not sampled, it is total: every distinct batch in the
request pool is verified byte-for-byte against the in-process engine
(the pool is small and reused, so the audit is cheap while every served
answer corresponds to an audited batch).
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ServeError
from repro.serve import protocol
from repro.serve.client import ServeClient

__all__ = ["BenchConfig", "run_bench"]

#: Distinct pre-generated batches in the request pool.
_POOL_SIZE = 32


@dataclass
class BenchConfig:
    """Knobs of one bench run."""

    scheme: str = "ecc"
    dims: Tuple[int, ...] = (16, 16)
    num_disks: int = 8
    batch: int = 1024
    duration: float = 5.0
    concurrency: int = 2
    burst_duration: float = 1.0
    burst_factor: int = 4
    seed: int = 2024
    unix_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    out: Optional[str] = None


def _make_pool(
    config: BenchConfig,
) -> List[Tuple[np.ndarray, np.ndarray, bytes]]:
    """Seeded random batches, each pre-encoded into its request frame."""
    rng = np.random.default_rng(config.seed)
    dims = np.asarray(config.dims, dtype=np.int64)
    pool = []
    for _ in range(_POOL_SIZE):
        lower = rng.integers(
            0, dims, size=(config.batch, len(config.dims))
        ).astype(np.int64)
        extent = rng.integers(
            0, np.maximum(dims // 2, 1), size=lower.shape
        )
        upper = np.minimum(lower + extent, dims - 1).astype(np.int64)
        frame = protocol.encode_frame(
            protocol.REQUEST_BATCH_RT,
            {
                "scheme": config.scheme,
                "dims": [int(d) for d in config.dims],
                "num_disks": config.num_disks,
                "count": config.batch,
            },
            lower.tobytes() + upper.tobytes(),
        )
        pool.append((lower, upper, frame))
    return pool


def _expected_times(
    config: BenchConfig,
    pool: List[Tuple[np.ndarray, np.ndarray, bytes]],
) -> List[np.ndarray]:
    """In-process ground truth for every batch in the pool."""
    from repro.core.cache import global_cache
    from repro.core.grid import Grid
    from repro.core.query import QueryBatch

    engine = global_cache().engine(
        config.scheme, Grid(config.dims), config.num_disks
    )
    return [
        engine.batch_response_times(
            QueryBatch.clip(lower, upper, config.dims)
        )
        for lower, upper, _frame in pool
    ]


@dataclass
class _Shared:
    """State the connection threads mutate under the lock."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    latencies: List[float] = field(default_factory=list)
    requests: int = 0
    mismatches: int = 0
    errors: List[str] = field(default_factory=list)


def _connection_loop(
    config: BenchConfig,
    pool: List[Tuple[np.ndarray, np.ndarray, bytes]],
    expected: List[np.ndarray],
    shared: _Shared,
    stop: threading.Event,
    record: bool,
    thread_index: int,
) -> None:
    try:
        client = ServeClient(
            unix_path=config.unix_path,
            host=config.host,
            port=config.port,
            timeout=60.0,
        )
    except OSError as exc:
        with shared.lock:
            shared.errors.append(f"connect: {exc!r}")
        return
    index = thread_index  # stagger the pool walk across threads
    try:
        while not stop.is_set():
            _lower, _upper, frame = pool[index % len(pool)]
            started = time.perf_counter()
            try:
                response = client.raw_request(frame)
            except (OSError, ServeError) as exc:
                with shared.lock:
                    shared.errors.append(f"request: {exc!r}")
                return
            latency = time.perf_counter() - started
            if response is None:
                return  # server drained mid-run
            kind, header, body = response
            if kind != protocol.RESPONSE_OK:
                with shared.lock:
                    shared.errors.append(
                        f"error response: {header.get('message')}"
                    )
                return
            times = np.frombuffer(body, dtype=np.int64)
            ok = np.array_equal(times, expected[index % len(pool)])
            with shared.lock:
                if record:
                    shared.latencies.append(latency)
                shared.requests += 1
                if not ok:
                    shared.mismatches += 1
            index += 1
    finally:
        client.close()


def _run_phase(
    config: BenchConfig,
    pool,
    expected,
    threads: int,
    duration: float,
    record: bool,
) -> Tuple[_Shared, float]:
    shared = _Shared()
    stop = threading.Event()
    workers = [
        threading.Thread(
            target=_connection_loop,
            args=(config, pool, expected, shared, stop, record, i),
            name=f"serve-bench-{i}",
            daemon=True,
        )
        for i in range(threads)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    time.sleep(duration)
    stop.set()
    for worker in workers:
        worker.join(timeout=30.0)
    elapsed = time.perf_counter() - started
    return shared, elapsed


def run_bench(config: BenchConfig) -> Dict[str, Any]:
    """Run both phases against a live daemon; return (and write) results."""
    pool = _make_pool(config)
    expected = _expected_times(config, pool)

    with ServeClient(
        unix_path=config.unix_path, host=config.host, port=config.port
    ) as probe:
        ping = probe.ping()
        if ping.get("version") != protocol.PROTOCOL_VERSION:
            raise ServeError(
                f"protocol mismatch: server v{ping.get('version')}, "
                f"client v{protocol.PROTOCOL_VERSION}"
            )

    measured, elapsed = _run_phase(
        config, pool, expected,
        threads=config.concurrency,
        duration=config.duration,
        record=True,
    )
    burst, _burst_elapsed = _run_phase(
        config, pool, expected,
        threads=config.concurrency * config.burst_factor,
        duration=config.burst_duration,
        record=False,
    )

    if measured.errors or burst.errors:
        raise ServeError(
            f"bench saw transport errors: "
            f"{(measured.errors + burst.errors)[:3]}"
        )
    mismatches = measured.mismatches + burst.mismatches
    if mismatches:
        raise ServeError(
            f"{mismatches} served batch(es) differed from the "
            "in-process engine — byte-identity violated"
        )

    latencies = np.asarray(measured.latencies, dtype=np.float64)
    queries = measured.requests * config.batch
    result = {
        "schema": 1,
        "bench": "serve",
        "config": {
            "scheme": config.scheme,
            "dims": list(config.dims),
            "num_disks": config.num_disks,
            "batch": config.batch,
            "duration_s": config.duration,
            "concurrency": config.concurrency,
            "burst_concurrency": config.concurrency
            * config.burst_factor,
            "seed": config.seed,
        },
        "measured": {
            "requests": measured.requests,
            "queries": queries,
            "elapsed_s": elapsed,
            "queries_per_second": (
                queries / elapsed if elapsed > 0 else 0.0
            ),
            "latency_p50_s": (
                float(np.percentile(latencies, 50))
                if latencies.size else 0.0
            ),
            "latency_p99_s": (
                float(np.percentile(latencies, 99))
                if latencies.size else 0.0
            ),
            "latency_max_s": (
                float(latencies.max()) if latencies.size else 0.0
            ),
        },
        "burst": {"requests": burst.requests},
        "verified_batches": len(pool),
        "mismatches": 0,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if config.out:
        out_path = Path(config.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(result, indent=2) + "\n")
    return result
