"""Response-time cost model.

The paper's performance metric: with one bucket read costing one time unit
and all ``M`` disks operating in parallel, the **response time** of a query
is the number of buckets on the busiest disk among those the query touches,

    RT(Q, A) = max_d |{ b in Q : A(b) = d }|.

The unbeatable lower bound is the **optimal response time**

    OPT(Q, M) = ceil(|Q| / M),

achieved exactly when the query's buckets are spread as evenly as possible.
A scheme is *strictly optimal* when RT = OPT for every query in some class
(range, partial match, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import QueryError
from repro.core.query import QueryBatch, RangeQuery, placement_extents

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import ResponseTimeEngine

__all__ = [
    "BATCH_THRESHOLD",
    "ENGINE_ENTRIES_PER_ROW",
    "additive_deviation",
    "average_response_time",
    "batch_disk_counts",
    "buckets_per_disk",
    "engine_rows",
    "optimal_response_time",
    "optimal_times",
    "per_query_costs",
    "placements_at_optimal",
    "query_optimal",
    "relative_deviation",
    "response_time",
    "response_times",
    "sliding_response_times",
    "worst_response_time",
]


def optimal_response_time(num_buckets: int, num_disks: int) -> int:
    """``ceil(num_buckets / num_disks)`` — the paper's optimal yardstick."""
    if num_buckets < 0:
        raise QueryError(f"bucket count must be non-negative: {num_buckets}")
    if num_disks <= 0:
        raise QueryError(f"disk count must be positive: {num_disks}")
    return -(-num_buckets // num_disks)


def buckets_per_disk(allocation: DiskAllocation, query: RangeQuery) -> np.ndarray:
    """Per-disk bucket counts for a query, ``shape (M,)``."""
    if query.ndim != allocation.grid.ndim:
        raise QueryError(
            f"{query.ndim}-d query does not match "
            f"{allocation.grid.ndim}-d allocation"
        )
    if not query.fits_in(allocation.grid):
        clipped = query.clip_to(allocation.grid)
        if clipped is None:
            return np.zeros(allocation.num_disks, dtype=np.int64)
        query = clipped
    region = allocation.table[query.slices()]
    return np.bincount(region.ravel(), minlength=allocation.num_disks)


def response_time(allocation: DiskAllocation, query: RangeQuery) -> int:
    """Buckets on the busiest disk for this query (0 for an empty query)."""
    counts = buckets_per_disk(allocation, query)
    return int(counts.max()) if counts.size else 0


def query_optimal(query: RangeQuery, num_disks: int) -> int:
    """OPT for a query that fits in the grid: ``ceil(|Q| / M)``."""
    return optimal_response_time(query.num_buckets, num_disks)


def _effective_optimal(allocation: DiskAllocation, query: RangeQuery) -> int:
    """OPT of the part of ``query`` inside the grid (0 if fully outside).

    Response times are computed on the clipped query (buckets outside the
    grid do not exist, so no disk reads them); the deviation metrics must
    use the same effective bucket count or a query clipped to nothing
    would divide by zero.
    """
    if query.ndim != allocation.grid.ndim:
        raise QueryError(
            f"{query.ndim}-d query does not match "
            f"{allocation.grid.ndim}-d allocation"
        )
    if not query.fits_in(allocation.grid):
        clipped = query.clip_to(allocation.grid)
        if clipped is None:
            return 0
        query = clipped
    return optimal_response_time(query.num_buckets, allocation.num_disks)


def additive_deviation(allocation: DiskAllocation, query: RangeQuery) -> int:
    """``RT - OPT`` for one query; 0 means the scheme was optimal on it.

    OPT is taken over the query's buckets inside the grid, as in
    :func:`relative_deviation`, so the deviation is never negative.
    """
    return response_time(allocation, query) - _effective_optimal(
        allocation, query
    )


def relative_deviation(allocation: DiskAllocation, query: RangeQuery) -> float:
    """``(RT - OPT) / OPT`` for one query (0.0 when it clips to nothing).

    OPT is taken over the query's buckets *inside* the grid, matching the
    clipping :func:`response_time` applies; a query entirely outside the
    grid has RT = OPT = 0 and deviates by 0.0 by convention.
    """
    opt = _effective_optimal(allocation, query)
    if opt == 0:
        return 0.0
    return (response_time(allocation, query) - opt) / opt


#: Fewest rows for which ``response_times`` and ``batch_disk_counts``
#: build a summed-area-table engine when none is given, on the smallest
#: grids: below it, counting one table slice per row is cheaper than the
#: engine's fixed set-up cost.
BATCH_THRESHOLD = 16

#: SAT entries (buckets × M) whose build costs about as much as one
#: sliced row.  The engine build grows with the table while the sliced
#: count grows with the rows, so a batch gets an engine from
#: ``BATCH_THRESHOLD + buckets * M // ENGINE_ENTRIES_PER_ROW`` rows
#: (measured crossovers in docs/performance.md, "Engine or slices").
#: Query lists and :class:`~repro.core.query.QueryBatch` inputs follow
#: the same rule (both pass :meth:`~repro.core.query.QueryBatch.of`
#: first), and the results are bit-identical either way, so the rule
#: only moves time around.
ENGINE_ENTRIES_PER_ROW = 512


def engine_rows(allocation: DiskAllocation) -> int:
    """Rows from which an engine-less batch on ``allocation`` builds one."""
    entries = allocation.grid.num_buckets * allocation.num_disks
    return BATCH_THRESHOLD + entries // ENGINE_ENTRIES_PER_ROW


def _batch_engine(
    allocation: DiskAllocation,
    batch: QueryBatch,
    engine: Optional["ResponseTimeEngine"],
) -> Optional["ResponseTimeEngine"]:
    """``engine``, or one built on the fly for a batch that warrants it."""
    if engine is None and len(batch) >= engine_rows(allocation):
        from repro.core.engine import ResponseTimeEngine

        engine = ResponseTimeEngine(allocation)
    return engine


def _sliced_counts(
    allocation: DiskAllocation, batch: QueryBatch
) -> np.ndarray:
    """Per-disk counts of a small batch, one table slice per row."""
    num_disks = allocation.num_disks
    counts = np.zeros((len(batch), num_disks), dtype=np.int64)
    rows = zip(batch.lo.tolist(), batch.hi.tolist())
    for row, (lower, upper) in enumerate(rows):
        region = allocation.table[tuple(map(slice, lower, upper))]
        counts[row] = np.bincount(region.ravel(), minlength=num_disks)
    return counts


def response_times(
    allocation: DiskAllocation,
    queries: Union[Iterable[RangeQuery], QueryBatch],
    engine: Optional["ResponseTimeEngine"] = None,
) -> np.ndarray:
    """Vector of response times, one per query.

    ``queries`` (a query iterable or a
    :class:`~repro.core.query.QueryBatch`) passes
    :meth:`~repro.core.query.QueryBatch.of` once.  When ``engine`` (a
    :class:`~repro.core.engine.ResponseTimeEngine` built on the same
    allocation) is given, the whole batch is answered through its
    summed-area table; with no engine one is built on the fly from
    :func:`engine_rows` rows, and a smaller batch is counted slice by
    slice.  Every path is bit-identical to the scalar
    :func:`response_time` oracle.
    """
    batch = QueryBatch.of(queries, allocation.grid)
    engine = _batch_engine(allocation, batch, engine)
    if engine is not None:
        return engine.batch_response_times(batch)
    return _sliced_counts(allocation, batch).max(axis=1)


def batch_disk_counts(
    allocation: DiskAllocation,
    queries: Union[Iterable[RangeQuery], QueryBatch],
    engine: Optional["ResponseTimeEngine"] = None,
) -> np.ndarray:
    """Per-query per-disk bucket counts, int64 of shape ``(N, M)``.

    Row ``n`` is :func:`buckets_per_disk` of ``queries[n]`` (clipping
    included).  Same size rule as :func:`response_times`: the given
    engine, or one built for :data:`BATCH_THRESHOLD` or more rows,
    answers it with one corner gather; a smaller batch is counted slice
    by slice.
    """
    batch = QueryBatch.of(queries, allocation.grid)
    engine = _batch_engine(allocation, batch, engine)
    if engine is not None:
        return engine.batch_disk_counts(batch)
    return _sliced_counts(allocation, batch)


def optimal_times(
    queries: Union[Sequence[RangeQuery], QueryBatch], num_disks: int
) -> np.ndarray:
    """Vector of OPT values, one per query.

    A query list gives each query's :func:`query_optimal` (its full
    bucket count); a :class:`~repro.core.query.QueryBatch` holds clipped
    bounds, so it gives the effective OPT of the part inside the grid
    (0 for a row clipped to nothing), as ``_effective_optimal`` does.
    """
    if isinstance(queries, QueryBatch):
        if num_disks <= 0:
            raise QueryError(f"disk count must be positive: {num_disks}")
        buckets = np.prod(queries.hi - queries.lo, axis=1)
        return -(-buckets // num_disks)
    return np.fromiter(
        (query_optimal(q, num_disks) for q in queries),
        dtype=np.int64,
        count=len(queries),
    )


def sliding_response_times(
    allocation: DiskAllocation, shape: Sequence[int]
) -> np.ndarray:
    """Response time of a query ``shape`` at *every* placement, vectorized.

    Returns an array of shape ``(d_1 - s_1 + 1, ..., d_k - s_k + 1)`` whose
    entry at ``origin`` is ``RT(query_at(origin, shape))``; a shape that
    does not fit gives an empty array.  This is the one-shot form of the
    engine sweep: it builds the allocation's summed-area table and
    answers every placement by ``2^k``-corner inclusion–exclusion on the
    active backend.  To sweep several shapes over one allocation, build
    one :class:`~repro.core.engine.ResponseTimeEngine` and ask it instead.
    """
    shape, extents = placement_extents(allocation.grid, shape)
    if 0 in extents:
        return np.zeros(extents, dtype=np.int64)
    from repro.core.engine import ResponseTimeEngine

    return ResponseTimeEngine(allocation).sliding_response_times(shape)


def average_response_time(
    allocation: DiskAllocation, shape: Sequence[int]
) -> float:
    """Exact mean RT of ``shape`` over all placements in the grid."""
    times = sliding_response_times(allocation, shape)
    if times.size == 0:
        raise QueryError(
            f"shape {tuple(shape)} does not fit in grid "
            f"{allocation.grid.dims}"
        )
    return float(times.mean())


def worst_response_time(
    allocation: DiskAllocation, shape: Sequence[int]
) -> int:
    """Worst-case RT of ``shape`` over all placements in the grid."""
    times = sliding_response_times(allocation, shape)
    if times.size == 0:
        raise QueryError(
            f"shape {tuple(shape)} does not fit in grid "
            f"{allocation.grid.dims}"
        )
    return int(times.max())


def placements_at_optimal(
    allocation: DiskAllocation, shape: Sequence[int]
) -> float:
    """Fraction of placements of ``shape`` answered at the optimal RT."""
    times = sliding_response_times(allocation, shape)
    if times.size == 0:
        raise QueryError(
            f"shape {tuple(shape)} does not fit in grid "
            f"{allocation.grid.dims}"
        )
    area = 1
    for side in shape:
        area *= int(side)
    opt = optimal_response_time(area, allocation.num_disks)
    return float((times == opt).mean())


def per_query_costs(
    allocation: DiskAllocation, queries: Sequence[RangeQuery]
) -> List[dict]:
    """RT, OPT and deviations for each query — handy for reports and tests.

    ``buckets``, the response time and OPT all count the query's
    buckets inside the grid.
    """
    queries = list(queries)
    batch = QueryBatch.of(queries, allocation.grid)
    buckets = np.prod(batch.hi - batch.lo, axis=1).tolist()
    times = response_times(allocation, batch).tolist()
    optima = optimal_times(batch, allocation.num_disks).tolist()
    return [
        {
            "query": query,
            "buckets": size,
            "response_time": rt,
            "optimal": opt,
            "additive_deviation": rt - opt,
            "relative_deviation": (rt - opt) / opt if opt else 0.0,
        }
        for query, size, rt, opt in zip(queries, buckets, times, optima)
    ]
