"""EPM — partial-match queries, where the 1994 theory actually lives.

Section 3 of the paper summarizes a decade of *partial-match* optimality
results (Table 1).  This experiment measures what those theorems predict:
partial-match performance of the four methods, split by the number of
specified attributes, on a power-of-two configuration where every
method's preconditions hold.

Expected shape (from Table 1): with exactly one attribute unspecified both
DM/CMD and FX are *exactly* optimal on every query; HCAM and ECC are close
but unguaranteed.  This is the mirror image of the range-query results —
and the reason the paper argues partial-match optimality is the wrong
yardstick for range queries.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.core.evaluator import SchemeEvaluator
from repro.core.grid import Grid
from repro.core.query import RangeQuery, partial_match_query
from repro.core.registry import PAPER_SCHEMES
from repro.experiments.common import ExperimentResult
from repro.workloads.queries import partial_match_batch

__all__ = [
    "partial_match_queries_with",
    "run",
    "single_free_attribute_queries",
]


def partial_match_queries_with(
    grid: Grid, num_specified: int
) -> list:
    """Every PM query with exactly ``num_specified`` bound attributes.

    The query-object view of
    :func:`repro.workloads.queries.partial_match_batch`.
    """
    return list(partial_match_batch(grid, num_specified).iter_queries())


def run(
    grid_dims: Sequence[int] = (16, 16, 16),
    num_disks: int = 16,
    schemes: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Sweep the number of specified attributes, 1 .. k-1.

    (0 specified = the full-grid scan, k specified = point queries; both
    are trivially equal across methods and omitted.)
    """
    grid = Grid(grid_dims)
    schemes = list(schemes or PAPER_SCHEMES)
    evaluator = SchemeEvaluator(grid, num_disks, schemes)
    x_values = []
    series = {name: [] for name in schemes}
    optimal = []
    for num_specified in range(1, grid.ndim):
        batch = partial_match_batch(grid, num_specified)
        results = evaluator.evaluate_queries(batch)
        x_values.append(num_specified)
        optimal.append(results[0].mean_optimal)
        for result in results:
            series[result.scheme].append(result.mean_response_time)
    return ExperimentResult(
        experiment_id="EPM",
        title="Partial-match queries by number of specified attributes",
        x_label="specified attributes",
        x_values=x_values,
        series=series,
        optimal=optimal,
        config={"grid": grid.dims, "num_disks": num_disks},
    )


def single_free_attribute_queries(grid: Grid) -> list:
    """PM queries with exactly one attribute unspecified (Table 1's row)."""
    queries = []
    for free_axis in range(grid.ndim):
        value_ranges = [
            [None] if a == free_axis else range(grid.dims[a])
            for a in range(grid.ndim)
        ]
        for values in itertools.product(*value_ranges):
            spec = list(values)
            queries.append(partial_match_query(grid, spec))
    return [q for q in queries if isinstance(q, RangeQuery)]
