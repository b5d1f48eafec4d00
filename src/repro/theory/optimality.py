"""Strict-optimality verification.

A declustering of a grid over ``M`` disks is **strictly optimal for range
queries** when every range query ``Q`` (every axis-aligned sub-rectangle of
the grid) is answered in the unbeatable ``ceil(|Q| / M)`` parallel bucket
reads.  The paper's central theoretical result is that for ``M > 5`` no
allocation of any sufficiently large grid achieves this — verified
computationally by :mod:`repro.theory.search`.

This module provides the exact checker: it enumerates every query *shape*
and compares the sliding-window response times of all placements against the
optimal bound, every shape swept on one summed-area table.  Cost is
``O(M * num_buckets)`` for the table plus ``O(2^k * M * placements)`` per
shape, which is perfectly tractable for the grid sizes where strict
optimality is even conceivable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.cost import optimal_response_time
from repro.core.engine import ResponseTimeEngine
from repro.core.grid import Coords
from repro.core.query import RangeQuery, query_at

__all__ = [
    "OptimalityReport",
    "is_strictly_optimal_for_partial_match",
    "iter_query_shapes",
    "verify_strict_optimality",
]


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of a strict-optimality check.

    Attributes
    ----------
    strictly_optimal:
        Whether every range query met the ``ceil(|Q|/M)`` bound.
    witness:
        A violating query (one of minimum area among the violations found
    	 shape-by-shape), or ``None`` when strictly optimal.
    witness_response_time / witness_optimal:
        The violating query's cost and bound (both ``None`` when optimal).
    shapes_checked:
        Number of query shapes examined.
    """

    strictly_optimal: bool
    witness: Optional[RangeQuery]
    witness_response_time: Optional[int]
    witness_optimal: Optional[int]
    shapes_checked: int


def iter_query_shapes(dims: Coords) -> Iterator[Coords]:
    """All query shapes that fit in a grid with extents ``dims``."""
    return itertools.product(*(range(1, d + 1) for d in dims))


def verify_strict_optimality(
    allocation: DiskAllocation,
    max_area: Optional[int] = None,
) -> OptimalityReport:
    """Check whether ``allocation`` is strictly optimal for range queries.

    Parameters
    ----------
    allocation:
        The bucket-to-disk map to verify.
    max_area:
        If given, only query shapes of at most this many buckets are checked
        (strict optimality *restricted to small queries*; the impossibility
        proof only needs areas up to about ``2 M``).

    Returns
    -------
    OptimalityReport
        With a concrete minimum-area witness query when the check fails.
    """
    grid = allocation.grid
    num_disks = allocation.num_disks
    engine = ResponseTimeEngine(allocation)
    best_witness: Optional[Tuple[int, RangeQuery, int, int]] = None
    shapes_checked = 0
    for shape in iter_query_shapes(grid.dims):
        area = 1
        for side in shape:
            area *= side
        if max_area is not None and area > max_area:
            continue
        shapes_checked += 1
        optimum = optimal_response_time(area, num_disks)
        times = engine.sliding_response_times(shape)
        worst = int(times.max())
        if worst > optimum:
            origin = np.unravel_index(int(times.argmax()), times.shape)
            query = query_at(tuple(int(o) for o in origin), shape)
            candidate = (area, query, worst, optimum)
            if best_witness is None or candidate[0] < best_witness[0]:
                best_witness = candidate
    if best_witness is None:
        return OptimalityReport(
            strictly_optimal=True,
            witness=None,
            witness_response_time=None,
            witness_optimal=None,
            shapes_checked=shapes_checked,
        )
    _, query, worst, optimum = best_witness
    return OptimalityReport(
        strictly_optimal=False,
        witness=query,
        witness_response_time=worst,
        witness_optimal=optimum,
        shapes_checked=shapes_checked,
    )


def is_strictly_optimal_for_partial_match(
    allocation: DiskAllocation,
) -> bool:
    """Strict optimality restricted to partial-match queries.

    Enumerates every partial-match query (each attribute fixed to a value or
    left free) and checks the bound.  Exponential in the number of
    attributes times the domain sizes, so meant for the small grids used in
    tests and theory demos.
    """
    grid = allocation.grid
    num_disks = allocation.num_disks
    choices = [
        [None] + list(range(d)) for d in grid.dims
    ]
    for spec in itertools.product(*choices):
        lower = tuple(
            0 if v is None else v for v in spec
        )
        upper = tuple(
            d - 1 if v is None else v for v, d in zip(spec, grid.dims)
        )
        query = RangeQuery(lower, upper)
        optimum = optimal_response_time(query.num_buckets, num_disks)
        region = allocation.table[query.slices()]
        counts = np.bincount(region.ravel(), minlength=num_disks)
        if int(counts.max()) > optimum:
            return False
    return True
