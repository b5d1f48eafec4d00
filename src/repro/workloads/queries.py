"""Query-workload generators for the experiments.

Two styles, matching how the paper sweeps its parameters:

* **Exhaustive** — every placement of a shape (or every shape of an area).
  Used wherever feasible: the mean over all placements is the exact expected
  response time under uniformly random query position, with zero sampling
  variance.
* **Sampled** — seeded random queries for workloads where exhaustive
  enumeration is not the point (mixed sizes, skewed placement, partial
  match).  All generators take an explicit ``rng`` or ``seed`` so every
  experiment is reproducible.

The experiments' workloads come from the array builders —
:func:`repro.core.query.placement_batch`, :func:`random_shape_batch` and
:func:`partial_match_batch` — which write a
:class:`~repro.core.query.QueryBatch`'s bounds with one vectorised
origin rule each and build no query object.  The list generators of the
same workloads are views over them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.exceptions import WorkloadError
from repro.core.grid import Grid
from repro.core.query import (
    QueryBatch,
    RangeQuery,
    all_placements,
    partial_match_query,
    query_at,
    shapes_with_area,
)
from repro.obs.trace import trace

__all__ = [
    "aspect_ratio_shapes",
    "exhaustive_workload",
    "partial_match_batch",
    "random_partial_match_queries",
    "random_queries_of_shape",
    "random_range_queries",
    "random_shape_batch",
    "square_shape",
    "zipf_placed_queries",
]


def _rng_from(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def square_shape(grid: Grid, side: int) -> tuple:
    """The k-dimensional cube shape with the given side."""
    if side <= 0:
        raise WorkloadError(f"side must be positive, got {side}")
    if any(side > d for d in grid.dims):
        raise WorkloadError(
            f"side {side} exceeds grid extents {grid.dims}"
        )
    return (side,) * grid.ndim


def aspect_ratio_shapes(
    grid: Grid, area: int
) -> List[tuple]:
    """2-d shapes of the given area ordered from square-most to line-most.

    This is the paper's Experiment 2 sweep ("vary the full range from a
    square to a line"): all ``a x b`` factorizations of ``area`` that fit in
    the grid, sorted by how elongated they are (``max(a,b)/min(a,b)``).
    """
    if grid.ndim != 2:
        raise WorkloadError(
            f"aspect-ratio sweep is defined for 2-d grids, got {grid.ndim}-d"
        )
    shapes = list(shapes_with_area(grid, area))
    if not shapes:
        raise WorkloadError(
            f"no shape of area {area} fits in grid {grid.dims}"
        )
    return sorted(shapes, key=lambda s: (max(s) / min(s), s))


def exhaustive_workload(
    grid: Grid, shapes: Sequence[Sequence[int]]
) -> Iterator[RangeQuery]:
    """Every placement of every given shape."""
    return itertools.chain.from_iterable(
        all_placements(grid, shape) for shape in shapes
    )


def random_range_queries(
    grid: Grid,
    count: int,
    max_side: Optional[int] = None,
    seed=0,
) -> List[RangeQuery]:
    """Uniformly random range queries.

    Each query picks, per axis, a side uniformly in ``[1, max_side]`` (capped
    by the grid) and a uniformly random origin among valid placements.
    """
    if count <= 0:
        raise WorkloadError(f"query count must be positive, got {count}")
    rng = _rng_from(seed)
    queries = []
    for _ in range(count):
        shape = []
        origin = []
        for extent in grid.dims:
            limit = extent if max_side is None else min(max_side, extent)
            side = int(rng.integers(1, limit + 1))
            shape.append(side)
            origin.append(int(rng.integers(0, extent - side + 1)))
        queries.append(query_at(origin, shape))
    return queries


def random_shape_batch(
    grid: Grid,
    shape: Sequence[int],
    count: int,
    seed=0,
) -> QueryBatch:
    """Random placements of one fixed shape (sampled with replacement).

    The origins are one ``rng.integers(0, highs, size=(count, k))``
    call, which draws the same values, and leaves the generator in the
    same state, as ``count * k`` scalar draws in row-major order.
    """
    if count <= 0:
        raise WorkloadError(f"query count must be positive, got {count}")
    shape = tuple(int(s) for s in shape)
    if len(shape) != grid.ndim:
        raise WorkloadError(
            f"shape arity {len(shape)} does not match grid {grid.dims}"
        )
    if any(s <= 0 or s > d for s, d in zip(shape, grid.dims)):
        raise WorkloadError(
            f"shape {shape} does not fit in grid {grid.dims}"
        )
    rng = _rng_from(seed)
    with trace("workload.batch", kind="random", num_queries=count):
        sides = np.asarray(shape, dtype=np.int64)
        highs = np.asarray(grid.dims, dtype=np.int64) - sides + 1
        origins = rng.integers(0, highs, size=(count, grid.ndim))
        return QueryBatch(origins, origins + sides, grid.dims)


def random_queries_of_shape(
    grid: Grid,
    shape: Sequence[int],
    count: int,
    seed=0,
) -> List[RangeQuery]:
    """Random placements of one fixed shape (sampled with replacement).

    The query-object view of :func:`random_shape_batch`.
    """
    return list(random_shape_batch(grid, shape, count, seed).iter_queries())


def partial_match_batch(grid: Grid, num_specified: int) -> QueryBatch:
    """Every partial-match query with exactly ``num_specified`` bound axes.

    One block per set of bound axes, in ``itertools.combinations``
    order; within a block the bound values run row-major (one
    ``np.indices`` call) and the free axes span their whole domain.
    """
    ndim = grid.ndim
    if not 0 <= num_specified <= ndim:
        raise WorkloadError(
            f"num_specified {num_specified} outside [0, {ndim}]"
        )
    combos = list(itertools.combinations(range(ndim), num_specified))
    sizes = [math.prod(grid.dims[a] for a in axes) for axes in combos]
    with trace(
        "workload.batch", kind="partial_match", num_queries=sum(sizes)
    ):
        dims = np.asarray(grid.dims, dtype=np.int64)
        lows, highs = [], []
        for axes, size in zip(combos, sizes):
            values = np.indices(
                [grid.dims[a] for a in axes], dtype=np.int64
            ).reshape(len(axes), size).T
            lo = np.zeros((size, ndim), dtype=np.int64)
            hi = np.repeat(dims[np.newaxis, :], size, axis=0)
            lo[:, axes] = values
            hi[:, axes] = values + 1
            lows.append(lo)
            highs.append(hi)
        return QueryBatch(
            np.concatenate(lows), np.concatenate(highs), grid.dims
        )


def random_partial_match_queries(
    grid: Grid,
    count: int,
    num_specified: Optional[int] = None,
    seed=0,
) -> List[RangeQuery]:
    """Random partial-match queries.

    ``num_specified`` fixes how many attributes get a value (default: chosen
    uniformly in ``[1, k-1]`` per query, so at least one attribute is always
    free and at least one always bound).
    """
    if count <= 0:
        raise WorkloadError(f"query count must be positive, got {count}")
    if grid.ndim < 2 and num_specified is None:
        raise WorkloadError(
            "partial-match workload needs >= 2 attributes "
            "unless num_specified is given"
        )
    if num_specified is not None and not 0 <= num_specified <= grid.ndim:
        raise WorkloadError(
            f"num_specified {num_specified} outside [0, {grid.ndim}]"
        )
    rng = _rng_from(seed)
    queries = []
    for _ in range(count):
        bound_count = (
            num_specified
            if num_specified is not None
            else int(rng.integers(1, grid.ndim))
        )
        axes = rng.choice(grid.ndim, size=bound_count, replace=False)
        spec: List[Optional[int]] = [None] * grid.ndim
        for axis in axes:
            spec[int(axis)] = int(rng.integers(0, grid.dims[int(axis)]))
        queries.append(partial_match_query(grid, spec))
    return queries


def zipf_placed_queries(
    grid: Grid,
    shape: Sequence[int],
    count: int,
    skew: float = 1.2,
    seed=0,
) -> List[RangeQuery]:
    """Placements of one shape with Zipf-skewed origins.

    Models a hot region: origin ranks are drawn from a (truncated) Zipf
    distribution over the valid placements in row-major order, so placements
    near the grid origin are queried far more often.  Used by the ablation
    workloads — the paper itself assumes uniform placement.
    """
    if count <= 0:
        raise WorkloadError(f"query count must be positive, got {count}")
    if skew <= 1.0:
        raise WorkloadError(f"Zipf skew must exceed 1.0, got {skew}")
    shape = tuple(int(s) for s in shape)
    extents = [d - s + 1 for s, d in zip(shape, grid.dims)]
    if len(shape) != grid.ndim or any(e <= 0 for e in extents):
        raise WorkloadError(
            f"shape {shape} does not fit in grid {grid.dims}"
        )
    num_placements = int(np.prod(extents))
    rng = _rng_from(seed)
    ranks = rng.zipf(skew, size=count)
    ranks = np.minimum(ranks - 1, num_placements - 1)
    queries = []
    for rank in ranks:
        remaining = int(rank)
        origin = []
        for extent in reversed(extents):
            origin.append(remaining % extent)
            remaining //= extent
        origin.reverse()
        queries.append(query_at(origin, shape))
    return queries
