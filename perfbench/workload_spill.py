"""``spill``: a beyond-budget chunked SAT build, reopened and queried mapped.

Each cycle builds the ``fx`` table of a 160³ grid over 8 disks with
``SummedAreaTable.build_chunked`` (default serial build, cnative backend)
under a byte budget of a quarter of the table, so tiles spill; reopens
it with ``open_mmap`` at the default verify level; then answers seeded
random query batches against the mapped table.  A fixed sample of small
queries per cycle is checked against brute-force ``disk_of`` counts.
The yardstick (``calibrate()``) is timed before each cycle.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.backends import set_backend
from repro.core.engine import ResponseTimeEngine
from repro.core.grid import Grid
from repro.core.query import QueryBatch
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable, sat_dtype

from common import (
    WORK,
    Outcome,
    Window,
    calibrate,
    median,
    peak_rss_mb,
    setup_samples,
    window_figures,
)
from layers import LayerInputs, per_layer_metrics
from shims import Recorder, ShimSet, chrome_trace, layer_targets

__all__ = ["BUDGET", "DIMS", "make_inputs", "run", "table_bytes"]

SCHEME = "fx"
DIMS = (160, 160, 160)
NUM_DISKS = 8
BACKEND = "cnative"

#: Seeded batches in the pool, queries per batch, batches per cycle.
POOL_BATCHES = 16
BATCH = 4096
BATCHES_PER_CYCLE = 8
MAX_SIDE = 40
#: Small queries per run checked against brute-force ``disk_of``.
CHECKED = 24
CHECK_SIDE = 6

SETUP_CODE = (
    "from repro.core.backends import set_backend\n"
    f"set_backend({BACKEND!r})\n"
    "import repro.core.engine, repro.core.registry\n"
    "print('ready', flush=True)\n"
)
SETUP_SAMPLES = 7


def table_bytes() -> int:
    """Size of the spilled table: M planes of the padded grid."""
    grid = Grid(DIMS)
    padded = math.prod(d + 1 for d in DIMS)
    return NUM_DISKS * padded * sat_dtype(grid.num_buckets).itemsize


#: A quarter of the table, so the build must spill tile by tile.
BUDGET = table_bytes() // 4


def make_inputs(seed: int) -> Tuple[List[QueryBatch], QueryBatch]:
    """The seeded query pool and the brute-force-checked sample."""
    rng = np.random.default_rng(seed)
    dims = np.asarray(DIMS, dtype=np.int64)

    def batch(count: int, max_side: int) -> QueryBatch:
        lo = rng.integers(0, dims, size=(count, len(DIMS)))
        side = rng.integers(1, max_side + 1, size=(count, len(DIMS)))
        return QueryBatch(lo, np.minimum(lo + side, dims), DIMS)

    pool = [batch(BATCH, MAX_SIDE) for _ in range(POOL_BATCHES)]
    return pool, batch(CHECKED, CHECK_SIDE)


def brute_force_counts(check: QueryBatch) -> np.ndarray:
    """Per-disk bucket counts of each query, one ``disk_of`` per bucket."""
    scheme = get_scheme(SCHEME)
    grid = Grid(DIMS)
    counts = np.zeros((len(check), NUM_DISKS), dtype=np.int64)
    for row, (lo, hi) in enumerate(zip(check.lo, check.hi)):
        ranges = [range(int(a), int(b)) for a, b in zip(lo, hi)]
        for coords in itertools.product(*ranges):
            counts[row, scheme.disk_of(coords, grid, NUM_DISKS)] += 1
    return counts


def _remove_spill(path) -> None:
    for leftover in path.parent.glob(path.name + "*"):
        leftover.unlink()


class _Cycles:
    """Runs spill cycles and keeps their timings."""

    def __init__(self, pool: List[QueryBatch], check: QueryBatch,
                 expected: np.ndarray):
        self.pool = itertools.cycle(pool)
        self.check = check
        self.expected = expected
        self.scheme = get_scheme(SCHEME)
        self.grid = Grid(DIMS)
        #: One window per cycle: the build+open, and its query batches.
        self.builds: List[Window] = []
        self.batches: List[Window] = []
        self.failed = 0

    def cycle(self, index: int, recorder: Recorder = None) -> float:
        path = WORK / "sat" / f"spill-{index}.npy"
        _remove_spill(path)
        yard = calibrate()
        cpu = time.process_time()
        started = time.perf_counter()
        built = SummedAreaTable.build_chunked(
            self.scheme, self.grid, NUM_DISKS, byte_budget=BUDGET,
            path=path,
        )
        built.close()
        mapped = SummedAreaTable.open_mmap(path)
        build_time = time.perf_counter() - started
        build_cpu = time.process_time() - cpu
        query_times, queries = [], 0
        try:
            engine = ResponseTimeEngine.from_sat(mapped)
            cpu = time.process_time()
            for _ in range(BATCHES_PER_CYCLE):
                batch = next(self.pool)
                began = time.perf_counter()
                engine.batch_response_times(batch)
                query_times.append(time.perf_counter() - began)
                queries += len(batch)
            query_cpu = time.process_time() - cpu
            if recorder is None:
                counts = engine.batch_disk_counts(self.check)
            else:
                with recorder.paused():
                    counts = engine.batch_disk_counts(self.check)
            self.failed += not np.array_equal(counts, self.expected)
        finally:
            mapped.close()
            _remove_spill(path)
        self.builds.append(
            Window(build_time, [build_time], 1, build_cpu, yard)
        )
        self.batches.append(
            Window(sum(query_times), query_times, queries, query_cpu, yard)
        )
        return time.perf_counter() - started


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    set_backend(BACKEND)  # warms the native cache before any timing
    pool, check = make_inputs(seed)
    cycles = _Cycles(pool, check, brute_force_counts(check))
    facts: Dict[str, object] = {
        "seed": seed, "sat_budget": BUDGET, "table_bytes": table_bytes(),
    }
    if traced:
        return _run_traced(cycles, seconds, facts)
    setup = setup_samples(SETUP_CODE, SETUP_SAMPLES)
    started = time.perf_counter()
    while not cycles.builds or time.perf_counter() - started < seconds:
        cycles.cycle(len(cycles.builds))
    count = len(cycles.builds)
    metrics = {
        "setup_s": (median(setup), len(setup)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "ok_frac": (1.0 - cycles.failed / count, count),
    }
    metrics.update(window_figures(cycles.builds))
    batches = window_figures(cycles.batches)
    for name in ("ops_per_s", "ops_norm_per_s"):
        metrics[name] = batches[name]
    return Outcome(attempted=count, failed=cycles.failed, metrics=metrics,
                   facts=facts)


def _run_traced(cycles: _Cycles, seconds: float, facts: dict) -> Outcome:
    reference = cycles.cycle(0)
    recorder = Recorder()
    walls: List[float] = []
    with ShimSet(recorder, layer_targets()):
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            walls.append(cycles.cycle(len(walls) + 1, recorder))
    count = len(walls)
    inputs = LayerInputs(
        recorder.stats, count, busy_s=sum(walls),
        untraced_s=reference, traced_s=median(walls),
    )
    return Outcome(
        attempted=count + 1,
        failed=cycles.failed,
        metrics={
            name: (value, count)
            for name, value in per_layer_metrics(inputs).items()
        },
        facts=facts,
        trace=chrome_trace(
            [recorder.to_json()], {recorder.pid: "benchmark"}
        ),
    )
