"""Micro-benchmarks of the library's hot kernels.

Not paper artifacts — these track the performance of the pieces everything
else is built on: allocation construction per scheme, the sliding-window
response-time kernel and its integral-image replacement, and the
Hilbert-index bit transform.

Besides the pytest-benchmark cases, running this file as a script times
the many-shapes sweep that motivated the engine (every shape of every
area on a 64x64 grid, M=16) through the legacy scalar kernel and the
:class:`~repro.core.engine.ResponseTimeEngine`, and writes the numbers —
including the measured speedup — to
``benchmarks/results/BENCH_kernels.json``; it also times batches of
random rectangles (4096 queries, 2-d and 3-d grids) through the legacy
per-query loop and ``batch_response_times``, written to
``benchmarks/results/BENCH_batch.json``; and it times every available
kernel backend (numpy reference, compiled cnative) on prebuilt
query bounds plus a beyond-RAM chunked summed-area-table build smoke,
written to ``benchmarks/results/BENCH_native.json``
(``REPRO_NATIVE_SMOKE_GRID`` shrinks the smoke grid, e.g. in CI)::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        [kernels.json] [batch.json] [native.json]
"""

import json
import os
import pathlib
import platform
import sys
import time

import pytest

from repro.core.cost import response_time, sliding_response_times
from repro.core.engine import ResponseTimeEngine
from repro.core.grid import Grid
from repro.core.query import RangeQuery, all_placements, shapes_with_area
from repro.core.registry import get_scheme
from repro.sfc.hilbert import hilbert_index

__all__ = [
    'BATCH_GRIDS',
    'BATCH_NUM_QUERIES',
    'BATCH_REPETITIONS',
    'BATCH_SEED',
    'DEFAULT_BATCH_JSON',
    'DEFAULT_JSON',
    'DEFAULT_NATIVE_JSON',
    'DISKS',
    'GRID',
    'NATIVE_GRID',
    'NATIVE_REPETITIONS',
    'NATIVE_SECTIONS',
    'NATIVE_SMOKE_DISKS',
    'NATIVE_SMOKE_GRID',
    'NATIVE_SMOKE_GRID_ENV',
    'OBS_OVERHEAD_ITERATIONS',
    'STREAM_BUDGET',
    'STREAM_DISKS',
    'STREAM_GRID',
    'STREAM_REPETITIONS',
    'VERIFY_OVERHEAD_GRID',
    'VERIFY_OVERHEAD_REPETITIONS',
    'SWEEP_DISKS',
    'SWEEP_GRID',
    'SWEEP_SCHEME',
    'main',
    'run_batch_bench',
    'run_chunked_smoke',
    'run_native_bench',
    'run_native_report',
    'run_obs_overhead_bench',
    'run_speedup_bench',
    'run_stream_bench',
    'run_verify_overhead_bench',
    'test_allocation_construction',
    'test_engine_batch_queries',
    'test_engine_build',
    'test_engine_sliding_kernel',
    'test_hilbert_index_kernel',
    'test_large_grid_allocation',
    'test_sliding_window_kernel',
]

GRID = Grid((32, 32))
DISKS = 16

#: Configuration of the scripted many-shapes sweep (mirrors the paper's
#: E1 structure at double resolution).
SWEEP_GRID = (64, 64)
SWEEP_DISKS = 16
SWEEP_SCHEME = "fx"

#: Configuration of the scripted batch-query sweep.
BATCH_NUM_QUERIES = 4096
BATCH_GRIDS = ((64, 64), (32, 32, 32))
BATCH_SEED = 413

DEFAULT_JSON = (
    pathlib.Path(__file__).parent / "results" / "BENCH_kernels.json"
)
DEFAULT_BATCH_JSON = (
    pathlib.Path(__file__).parent / "results" / "BENCH_batch.json"
)


@pytest.mark.parametrize("name", ["dm", "fx", "ecc", "hcam"])
def test_allocation_construction(benchmark, name):
    scheme = get_scheme(name)
    allocation = benchmark(lambda: scheme.allocate(GRID, DISKS))
    assert allocation.table.shape == GRID.dims


def test_sliding_window_kernel(benchmark):
    allocation = get_scheme("dm").allocate(GRID, DISKS)
    times = benchmark(
        lambda: sliding_response_times(allocation, (4, 4))
    )
    assert times.shape == (29, 29)


def test_engine_build(benchmark):
    allocation = get_scheme("dm").allocate(GRID, DISKS)
    engine = benchmark(lambda: ResponseTimeEngine(allocation))
    assert engine.num_disks == DISKS


def test_engine_sliding_kernel(benchmark):
    # Amortized per-shape cost: the SAT is precomputed once outside the
    # timed region, as it is in real sweeps via the allocation cache.
    allocation = get_scheme("dm").allocate(GRID, DISKS)
    engine = ResponseTimeEngine(allocation)
    times = benchmark(lambda: engine.sliding_response_times((4, 4)))
    assert times.shape == (29, 29)


def test_hilbert_index_kernel(benchmark):
    def run():
        total = 0
        for x in range(32):
            for y in range(32):
                total += hilbert_index((x, y), 5)
        return total

    total = benchmark(run)
    assert total == 1024 * 1023 // 2


def test_large_grid_allocation(benchmark):
    grid = Grid((128, 128))
    allocation = benchmark(
        lambda: get_scheme("hcam").allocate(grid, 32)
    )
    assert allocation.is_storage_balanced()


def _random_queries(grid: Grid, count: int, seed: int):
    """``count`` seeded-random rectangles, arbitrary position and extent."""
    import numpy as np

    rng = np.random.default_rng(seed)
    dims = np.asarray(grid.dims, dtype=np.int64)
    lower = rng.integers(0, dims, size=(count, grid.ndim))
    upper = rng.integers(lower, dims, size=(count, grid.ndim))
    return [
        RangeQuery(tuple(lo), tuple(hi))
        for lo, hi in zip(lower, upper)
    ]


def test_engine_batch_queries(benchmark):
    # Amortized batch cost: SAT precomputed outside the timed region,
    # as in real sweeps via the allocation cache.
    allocation = get_scheme("dm").allocate(GRID, DISKS)
    engine = ResponseTimeEngine(allocation)
    queries = _random_queries(GRID, 1024, BATCH_SEED)
    times = benchmark(lambda: engine.batch_response_times(queries))
    assert times.shape == (1024,)


def _all_shapes(grid: Grid):
    shapes = []
    for area in range(1, grid.num_buckets + 1):
        shapes.extend(shapes_with_area(grid, area))
    return shapes


def _host_stamp() -> dict:
    """CPU count, Python and numpy versions, so records compare fairly."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_speedup_bench(
    grid_dims=SWEEP_GRID, num_disks=SWEEP_DISKS, scheme=SWEEP_SCHEME
) -> dict:
    """Time the many-shapes sweep through both kernels; return the record.

    The sweep covers *every* shape of *every* realizable area — the
    workload ``SchemeEvaluator.evaluate_area`` runs per x-point in E1.
    The legacy leg calls the one-shot
    :func:`repro.core.cost.sliding_response_times`, which builds a
    summed-area table per shape; the engine builds it once.  The record
    is stamped with the host (CPU count, Python, numpy).
    """
    grid = Grid(grid_dims)
    allocation = get_scheme(scheme).allocate(grid, num_disks)
    shapes = _all_shapes(grid)

    start = time.perf_counter()
    for shape in shapes:
        sliding_response_times(allocation, shape)
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    engine = ResponseTimeEngine(allocation)
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for shape in shapes:
        engine.sliding_response_times(shape)
    engine_seconds = time.perf_counter() - start

    # Sanity, outside the timed legs: both sweeps of one mid-size shape
    # equal brute-force response_time at every placement.
    probe = shapes[len(shapes) // 2]
    for times in (
        sliding_response_times(allocation, probe),
        engine.sliding_response_times(probe),
    ):
        for query in all_placements(grid, probe):
            assert times[tuple(query.lower)] == response_time(
                allocation, query
            )

    total_engine = build_seconds + engine_seconds
    return {
        "benchmark": "many_shapes_sweep",
        **_host_stamp(),
        "grid": list(grid_dims),
        "num_disks": num_disks,
        "scheme": scheme,
        "num_shapes": len(shapes),
        "legacy_seconds": round(legacy_seconds, 6),
        "engine_build_seconds": round(build_seconds, 6),
        "engine_sweep_seconds": round(engine_seconds, 6),
        "engine_total_seconds": round(total_engine, 6),
        "legacy_us_per_shape": round(1e6 * legacy_seconds / len(shapes), 3),
        "engine_us_per_shape": round(1e6 * engine_seconds / len(shapes), 3),
        "speedup_amortized": round(legacy_seconds / engine_seconds, 2),
        "speedup_including_build": round(legacy_seconds / total_engine, 2),
    }


#: Rounds of the batch benchmark: each times one slice of the per-query
#: loop, then one cached batch call of every query.
BATCH_REPETITIONS = 5


def run_batch_bench(
    num_queries=BATCH_NUM_QUERIES,
    grids=BATCH_GRIDS,
    num_disks=SWEEP_DISKS,
    scheme=SWEEP_SCHEME,
    seed=BATCH_SEED,
    repetitions=BATCH_REPETITIONS,
) -> dict:
    """Time random-rectangle batches through both query paths.

    Per grid: ``num_queries`` seeded-random rectangles evaluated by the
    legacy per-query loop (:func:`repro.core.cost.response_time` one
    query at a time) and by repeated
    :meth:`~repro.core.engine.ResponseTimeEngine.batch_response_times`
    calls through an :class:`~repro.core.cache.AllocationCache`, with a
    bit-identity sanity check between the two.  The two legs alternate:
    the per-query loop is cut into ``repetitions`` slices, and each
    round times one slice and then one batch call of every query, so
    host drift over the run falls on both legs alike.
    ``speedup_amortized`` is the median over the rounds of the slice's
    per-query time over the same round's batch per-query time.  The
    engine build is paid once (the cache miss) and every batch call
    reuses it, exactly as real sweeps do — so ``batch_seconds`` (the
    best call) is a steady-state number and the one-time build cost is
    reported as explicit amortization fields (``speedup_first_call``,
    ``build_break_even_queries``) instead of silently deflating the
    speedup.
    """
    import numpy as np

    from repro.core.cache import AllocationCache

    records = []
    for grid_dims in grids:
        grid = Grid(grid_dims)
        allocation = get_scheme(scheme).allocate(grid, num_disks)
        queries = _random_queries(grid, num_queries, seed)
        slices = np.array_split(np.arange(num_queries), repetitions)

        cache = AllocationCache()
        start = time.perf_counter()
        engine = cache.engine(scheme, grid, num_disks)
        build_seconds = time.perf_counter() - start
        legacy_parts = []
        slice_seconds = []
        rep_seconds = []
        for rows in slices:
            start = time.perf_counter()
            legacy_parts.append(
                [response_time(allocation, queries[i]) for i in rows]
            )
            slice_seconds.append(time.perf_counter() - start)
            start = time.perf_counter()
            engine = cache.engine(scheme, grid, num_disks)
            batched = engine.batch_response_times(queries)
            rep_seconds.append(time.perf_counter() - start)
        legacy = np.array(
            [t for part in legacy_parts for t in part], dtype=np.int64
        )
        legacy_seconds = sum(slice_seconds)
        batch_seconds = min(rep_seconds)
        round_speedups = [
            (seconds / len(rows)) / (rep / num_queries)
            for seconds, rows, rep in zip(
                slice_seconds, slices, rep_seconds
            )
        ]

        assert np.array_equal(legacy, batched)

        legacy_per_query = legacy_seconds / num_queries
        batch_per_query = batch_seconds / num_queries
        saved_per_query = legacy_per_query - batch_per_query
        break_even = (
            int(-(-build_seconds // saved_per_query))
            if saved_per_query > 0
            else None
        )
        records.append(
            {
                "grid": list(grid_dims),
                "num_disks": num_disks,
                "scheme": scheme,
                "num_queries": num_queries,
                "seed": seed,
                "repetitions": repetitions,
                "legacy_seconds": round(legacy_seconds, 6),
                "legacy_seconds_per_slice": [
                    round(s, 6) for s in slice_seconds
                ],
                "engine_build_seconds": round(build_seconds, 6),
                "batch_seconds": round(batch_seconds, 6),
                "batch_seconds_per_rep": [
                    round(s, 6) for s in rep_seconds
                ],
                "legacy_us_per_query": round(1e6 * legacy_per_query, 3),
                "batch_us_per_query": round(1e6 * batch_per_query, 3),
                # Like with like: each round's per-query loop slice
                # against the batch call timed right after it.
                "speedup_amortized": round(
                    float(np.median(round_speedups)), 2
                ),
                # Cold-start view: one batch paying the full engine
                # build.  Kept for visibility but *not* gated — the
                # cache makes it a once-per-(scheme, grid, M) cost.
                "speedup_first_call": round(
                    legacy_seconds / (build_seconds + batch_seconds), 2
                ),
                # Queries after which the engine (build included) beats
                # the legacy loop outright.
                "build_break_even_queries": break_even,
            }
        )
    return {
        "benchmark": "batch_queries",
        **_host_stamp(),
        "grids": records,
    }


#: Configuration of the backend (native-kernel) section.
NATIVE_GRID = (32, 32, 32)
NATIVE_REPETITIONS = 5

#: Environment variable overriding the chunked-smoke grid (``AxBxC``);
#: CI shrinks it, the committed artifact records the full default.
NATIVE_SMOKE_GRID_ENV = "REPRO_NATIVE_SMOKE_GRID"
NATIVE_SMOKE_GRID = (1024, 1024, 1024)
NATIVE_SMOKE_DISKS = 2

DEFAULT_NATIVE_JSON = (
    pathlib.Path(__file__).parent / "results" / "BENCH_native.json"
)


def run_native_bench(
    num_queries=BATCH_NUM_QUERIES,
    grid_dims=NATIVE_GRID,
    num_disks=SWEEP_DISKS,
    scheme=SWEEP_SCHEME,
    seed=BATCH_SEED,
    repetitions=NATIVE_REPETITIONS,
) -> dict:
    """Time every available backend's kernels against the numpy reference.

    Isolates the *kernel*: query bounds are prebuilt once as a
    :class:`~repro.core.query.QueryBatch` (the ``RangeQuery`` → array
    conversion costs as much as the numpy gather itself at this size)
    and the summed-area table is built outside the timed region.  Per
    backend the batched 2^k-corner gather and the sliding-window sweep
    are timed over ``repetitions`` calls (best-of, after a warm-up call
    that also pays any one-time native compilation), with bit-identity
    asserted against numpy on every path.
    """
    import numpy as np

    from repro.core.backends import all_backends, get_backend
    from repro.core.query import QueryBatch

    grid = Grid(grid_dims)
    allocation = get_scheme(scheme).allocate(grid, num_disks)
    engine = ResponseTimeEngine(allocation)
    sat = engine.sat
    queries = _random_queries(grid, num_queries, seed)
    batch = QueryBatch.from_queries(queries, grid)
    window_shape = tuple(min(4, d) for d in grid_dims)

    def best_of(call):
        call()  # warm-up: native compile
        best = float("inf")
        result = None
        for _ in range(repetitions):
            start = time.perf_counter()
            result = call()
            best = min(best, time.perf_counter() - start)
        return best, result

    reference = get_backend("numpy")
    numpy_batch_seconds, numpy_times = best_of(
        lambda: reference.batch_response_times(sat, batch.lo, batch.hi)
    )
    numpy_window_seconds, numpy_window = best_of(
        lambda: reference.window_response_times(sat, window_shape)
    )

    backends = []
    for backend in all_backends():
        entry = {
            "backend": backend.name,
            "available": backend.available(),
        }
        if not backend.available():
            entry["unavailable_reason"] = backend.unavailable_reason()
            backends.append(entry)
            continue
        if backend.name == "numpy":
            batch_seconds, window_seconds = (
                numpy_batch_seconds,
                numpy_window_seconds,
            )
        else:
            batch_seconds, times = best_of(
                lambda b=backend: b.batch_response_times(
                    sat, batch.lo, batch.hi
                )
            )
            window_seconds, window = best_of(
                lambda b=backend: b.window_response_times(
                    sat, window_shape
                )
            )
            assert np.array_equal(times, numpy_times)
            assert np.array_equal(window, numpy_window)
            entry["bit_identical"] = True
        entry.update(
            {
                "batch_seconds": round(batch_seconds, 6),
                "batch_us_per_query": round(
                    1e6 * batch_seconds / num_queries, 3
                ),
                "batch_speedup_vs_numpy": round(
                    numpy_batch_seconds / batch_seconds, 2
                ),
                "window_seconds": round(window_seconds, 6),
                "window_speedup_vs_numpy": round(
                    numpy_window_seconds / window_seconds, 2
                ),
            }
        )
        backends.append(entry)
    return {
        "benchmark": "backend_kernels",
        **_host_stamp(),
        "grid": list(grid_dims),
        "num_disks": num_disks,
        "scheme": scheme,
        "num_queries": num_queries,
        "seed": seed,
        "repetitions": repetitions,
        "window_shape": list(window_shape),
        "backends": backends,
    }


def _smoke_grid_dims():
    """The chunked-smoke grid: ``REPRO_NATIVE_SMOKE_GRID`` or 1024³."""
    raw = os.environ.get(NATIVE_SMOKE_GRID_ENV)
    if not raw:
        return NATIVE_SMOKE_GRID
    return tuple(int(part) for part in raw.lower().split("x"))


def run_chunked_smoke(
    grid_dims=None,
    num_disks=NATIVE_SMOKE_DISKS,
    scheme="dm",
    byte_budget=None,
    num_check_queries=8,
    seed=BATCH_SEED,
    backend=None,
) -> dict:
    """Build a beyond-RAM chunked SAT and verify it end to end.

    Builds the summed-area table for ``grid_dims`` (default 1024³ — over
    a billion buckets, ~8.6 GB on disk at M=2) tile by tile under the
    configured byte budget, with ``backend``'s tile kernel (default: the
    active backend), then checks the result three ways: the
    per-query disk counts of random rectangles must sum to the clipped
    query volume, a tiny corner query is brute-forced against
    ``scheme.disk_of`` bucket by bucket, and the tile working set must
    fit the budget.  The record names the backend and carries the
    manifest's tile digests, so builds on two backends can be compared.
    The spilled file is removed afterwards.
    """
    import numpy as np

    from repro.core.backends import active_backend_name, use_backend
    from repro.core.engine import ResponseTimeEngine
    from repro.core.integrity import SatManifest, manifest_path
    from repro.core.query import QueryBatch
    from repro.core.sat import SummedAreaTable, sat_byte_budget

    grid_dims = grid_dims or _smoke_grid_dims()
    budget = sat_byte_budget(byte_budget)
    grid = Grid(grid_dims)
    scheme_obj = get_scheme(scheme)
    rows = SummedAreaTable.tile_rows(grid, num_disks, budget)
    working_set = SummedAreaTable.tile_working_set(
        grid, num_disks, rows
    )
    # rows is floored at 1, so a single-row tile may legitimately
    # overshoot a tiny budget; that is the only allowed excess.
    within_budget = working_set <= budget or rows == 1

    backend = backend or active_backend_name()
    with use_backend(backend):
        start = time.perf_counter()
        sat = SummedAreaTable.build_chunked(
            scheme_obj, grid, num_disks, byte_budget=budget
        )
        build_seconds = time.perf_counter() - start
    try:
        sat_file_bytes = os.path.getsize(sat.path)
        tile_digests = SatManifest.load(sat.path).tile_digests
        engine = ResponseTimeEngine.from_sat(sat)

        queries = _random_queries(grid, num_check_queries, seed)
        batch = QueryBatch.from_queries(queries, grid)
        counts = engine.batch_disk_counts(batch)
        volumes = (batch.hi - batch.lo).prod(axis=1)
        volume_ok = bool(
            np.array_equal(counts.sum(axis=1), volumes)
        )

        # Brute-force a tiny corner query bucket by bucket.
        tiny_extent = tuple(min(2, d) for d in grid_dims)
        tiny = RangeQuery(
            (0,) * grid.ndim, tuple(e - 1 for e in tiny_extent)
        )
        tiny_counts = engine.batch_disk_counts([tiny])[0]
        expected = np.zeros(num_disks, dtype=np.int64)
        for coords in np.ndindex(*tiny_extent):
            expected[scheme_obj.disk_of(coords, grid, num_disks)] += 1
        brute_force_ok = bool(np.array_equal(tiny_counts, expected))
    finally:
        path = sat.path
        sat.close()
        os.unlink(path)
        os.unlink(manifest_path(path))

    return {
        "benchmark": "chunked_sat_smoke",
        "backend": backend,
        "grid": list(grid_dims),
        "num_buckets": grid.num_buckets,
        "num_disks": num_disks,
        "scheme": scheme,
        "byte_budget": budget,
        "tile_rows": rows,
        "tile_working_set_bytes": working_set,
        "within_budget": within_budget,
        "sat_file_bytes": sat_file_bytes,
        "tile_digests": tile_digests,
        "build_seconds": round(build_seconds, 3),
        "num_check_queries": num_check_queries,
        "volume_invariant_ok": volume_ok,
        "brute_force_ok": brute_force_ok,
        "completed": bool(
            within_budget and volume_ok and brute_force_ok
        ),
    }


#: Configuration of the mapped-table section (``stream_kernel`` in
#: ``BENCH_native.json``): the CI-sized chunked table it builds and
#: queries.
STREAM_GRID = (96, 96, 96)
STREAM_DISKS = 4
STREAM_BUDGET = 2 * 1024 * 1024
STREAM_REPETITIONS = 5


def run_stream_bench(
    grid_dims=STREAM_GRID,
    num_disks=STREAM_DISKS,
    scheme="dm",
    byte_budget=STREAM_BUDGET,
    num_queries=BATCH_NUM_QUERIES,
    seed=BATCH_SEED,
    repetitions=STREAM_REPETITIONS,
) -> dict:
    """numpy vs cnative batch queries over the same memory-mapped table.

    Builds one CI-sized chunked (disk-last) table, then times
    ``batch_response_times`` over the memory-mapped file through the
    numpy fancy-index gather and through the ``cnative`` ``batch_rt``
    kernel — the same call in-RAM tables take — best-of
    ``repetitions`` after a warm-up, asserting bit-identity between the
    two.  The record is stamped with the host (CPU count, Python,
    numpy).  When no C compiler is present the record says so and
    carries no speedup — the gate skips it the same way it skips the
    in-RAM native legs.
    """
    import tempfile

    import numpy as np

    from repro.core.backends import get_backend
    from repro.core.query import QueryBatch
    from repro.core.sat import SummedAreaTable

    grid = Grid(grid_dims)
    scheme_obj = get_scheme(scheme)
    queries = _random_queries(grid, num_queries, seed)
    batch = QueryBatch.from_queries(queries, grid)
    record = {
        "benchmark": "stream_kernel",
        "table": "memory-mapped, disk-last",
        **_host_stamp(),
        "grid": list(grid_dims),
        "num_disks": num_disks,
        "scheme": scheme,
        "byte_budget": byte_budget,
        "num_queries": num_queries,
        "seed": seed,
        "repetitions": repetitions,
    }
    numpy_backend = get_backend("numpy")
    native_backend = get_backend("cnative")
    record["native_available"] = native_backend.available()
    if not native_backend.available():
        record["unavailable_reason"] = (
            native_backend.unavailable_reason()
        )
        return record

    def best_of(call):
        call()  # warm-up: page-cache fill
        best = float("inf")
        result = None
        for _ in range(repetitions):
            start = time.perf_counter()
            result = call()
            best = min(best, time.perf_counter() - start)
        return best, result

    with tempfile.TemporaryDirectory(prefix="repro-mapped-") as tmp:
        sat = SummedAreaTable.build_chunked(
            scheme_obj,
            grid,
            num_disks,
            byte_budget=byte_budget,
            path=os.path.join(tmp, "sat.npy"),
        )
        try:
            numpy_seconds, numpy_times = best_of(
                lambda: numpy_backend.batch_response_times(
                    sat, batch.lo, batch.hi
                )
            )
            native_seconds, native_times = best_of(
                lambda: native_backend.batch_response_times(
                    sat, batch.lo, batch.hi
                )
            )
        finally:
            sat.close()
    assert np.array_equal(numpy_times, native_times)
    record.update(
        {
            "bit_identical": True,
            "numpy_mapped_seconds": round(numpy_seconds, 6),
            "native_mapped_seconds": round(native_seconds, 6),
            "numpy_us_per_query": round(
                1e6 * numpy_seconds / num_queries, 3
            ),
            "native_us_per_query": round(
                1e6 * native_seconds / num_queries, 3
            ),
            "speedup": round(numpy_seconds / native_seconds, 2),
        }
    )
    return record


#: Configuration of the verify-overhead section: repetitions and the
#: grid the spilled table is built on.
VERIFY_OVERHEAD_GRID = (64, 64, 64)
VERIFY_OVERHEAD_REPETITIONS = 7


def run_verify_overhead_bench(
    grid_dims=VERIFY_OVERHEAD_GRID,
    num_disks=8,
    scheme="dm",
    repetitions=VERIFY_OVERHEAD_REPETITIONS,
) -> dict:
    """Measure what integrity verification adds to reopening a spilled SAT.

    Builds one chunked summed-area table, then times
    :meth:`~repro.core.sat.SummedAreaTable.open_mmap` at every verify
    level (best-of ``repetitions``; ``off`` and ``header`` sampled in
    alternation, so drift cannot land on one of them), both bare and
    followed by a representative sliding-window sweep — the workload an
    open exists to serve.  Two ratios come out: ``open_overhead_ratio`` (header vs off
    on the bare open; informational — the open itself is microseconds,
    so even a small constant manifest read looks large against it) and
    ``open_query_overhead_ratio`` (header vs off on open + sweep), which
    is the number the bench gate holds to the ≤5% contract.  The full
    level re-hashes the whole file and is recorded for visibility, not
    gated.
    """
    import tempfile

    from repro.core.sat import SummedAreaTable

    grid = Grid(grid_dims)
    fd, path = tempfile.mkstemp(
        prefix="repro-sat-bench-", suffix=".npy"
    )
    os.close(fd)
    os.unlink(path)  # build_chunked stages its own partial there
    sat = SummedAreaTable.build_chunked(
        get_scheme(scheme), grid, num_disks, path=path
    )
    sat.close()
    window_shape = tuple(min(4, d) for d in grid_dims)

    def timed(verify, sweep):
        start = time.perf_counter()
        handle = SummedAreaTable.open_mmap(path, verify=verify)
        try:
            if sweep:
                engine = ResponseTimeEngine.from_sat(handle)
                engine.sliding_response_times(window_shape)
        finally:
            handle.close()
        return time.perf_counter() - start

    def best_of(levels, sweep):
        # The levels are sampled in turn, their order flipped every
        # round, so host drift over the run falls on each level alike
        # rather than on whichever level happened to be timed last.
        best = dict.fromkeys(levels, float("inf"))
        for round_ in range(repetitions + 1):  # round 0 warms the cache
            for verify in levels if round_ % 2 else levels[::-1]:
                best[verify] = min(best[verify], timed(verify, sweep))
        return [best[verify] for verify in levels]

    try:
        open_off, open_header = best_of(("off", "header"), sweep=False)
        (open_full,) = best_of(("full",), sweep=False)
        query_off, query_header = best_of(("off", "header"), sweep=True)
    finally:
        for leftover in (
            path,
            path + ".manifest.json",
        ):
            try:
                os.unlink(leftover)
            except OSError:
                pass

    return {
        "benchmark": "verify_overhead",
        "grid": list(grid_dims),
        "num_disks": num_disks,
        "scheme": scheme,
        "repetitions": repetitions,
        "window_shape": list(window_shape),
        "open_off_seconds": round(open_off, 6),
        "open_header_seconds": round(open_header, 6),
        "open_full_seconds": round(open_full, 6),
        "open_overhead_ratio": round(open_header / open_off, 3),
        "open_query_off_seconds": round(query_off, 6),
        "open_query_header_seconds": round(query_header, 6),
        "open_query_overhead_ratio": round(
            query_header / query_off, 4
        ),
    }


#: The sections of ``BENCH_native.json``, each with the function that
#: writes it.
NATIVE_SECTIONS = {
    "backend_kernels": run_native_bench,
    "chunked_smoke": run_chunked_smoke,
    "stream_kernel": run_stream_bench,
    "verify_overhead": run_verify_overhead_bench,
}


def run_native_report() -> dict:
    """The full ``BENCH_native.json`` record: backends, chunked smoke,
    mapped-table queries, verify overhead."""
    return {name: run() for name, run in NATIVE_SECTIONS.items()}


#: Iterations of the disabled-tracer micro-benchmark.
OBS_OVERHEAD_ITERATIONS = 200_000


def run_obs_overhead_bench(iterations=OBS_OVERHEAD_ITERATIONS) -> dict:
    """Measure the cost of a *disabled* tracer span on the hot path.

    The observability layer's contract is zero measurable overhead when
    off: instrumented hot paths (``engine.sliding_response_times``,
    ``batch_response_times``) call :func:`repro.obs.trace.trace`
    unconditionally, so the disabled path must stay allocation-free and
    nanosecond-scale.  This times ``iterations`` disabled no-op spans
    against an empty loop and reports the net cost per span —
    ``scripts/check_bench_gate.py`` asserts the bound in CI.
    """
    from repro.obs.trace import global_tracer, trace

    tracer = global_tracer()
    was_enabled = tracer.enabled
    tracer.disable()
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            with trace("bench.noop"):
                pass
        with_spans = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(iterations):
            pass
        bare = time.perf_counter() - start
    finally:
        if was_enabled:
            tracer.enable()

    net_ns = max(1e9 * (with_spans - bare) / iterations, 0.0)
    return {
        "benchmark": "obs_disabled_overhead",
        "iterations": iterations,
        "loop_with_disabled_spans_seconds": round(with_spans, 6),
        "bare_loop_seconds": round(bare, 6),
        "ns_per_disabled_span": round(net_ns, 1),
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    target = pathlib.Path(argv[0]) if argv else DEFAULT_JSON
    batch_target = (
        pathlib.Path(argv[1]) if len(argv) > 1 else DEFAULT_BATCH_JSON
    )
    native_target = (
        pathlib.Path(argv[2]) if len(argv) > 2 else DEFAULT_NATIVE_JSON
    )
    record = run_speedup_bench()
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"[written to {target}]", file=sys.stderr)
    batch_record = run_batch_bench()
    batch_target.parent.mkdir(parents=True, exist_ok=True)
    batch_target.write_text(json.dumps(batch_record, indent=2) + "\n")
    print(json.dumps(batch_record, indent=2))
    print(f"[written to {batch_target}]", file=sys.stderr)
    native_record = run_native_report()
    native_target.parent.mkdir(parents=True, exist_ok=True)
    native_target.write_text(json.dumps(native_record, indent=2) + "\n")
    print(json.dumps(native_record, indent=2))
    print(f"[written to {native_target}]", file=sys.stderr)
    print(json.dumps(run_obs_overhead_bench(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
