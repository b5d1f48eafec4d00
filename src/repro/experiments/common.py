"""Shared experiment machinery: result container and sweep helpers.

Every experiment produces an :class:`ExperimentResult`: an x-axis (the
swept parameter), one series of y-values per scheme, and the optimal
baseline series.  Values are mean response times in bucket accesses, exactly
the quantity the paper plots, computed over *all* placements of the relevant
query shapes (exact expectation, no sampling noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.evaluator import SchemeEvaluator
from repro.core.exceptions import WorkloadError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, placement_batch
from repro.core.registry import PAPER_SCHEMES, scheme_label

__all__ = [
    "ExperimentResult",
    "default_area_sweep",
    "mean_rt_for_shapes",
    "strided_placements",
    "sweep_shapes",
]


@dataclass
class ExperimentResult:
    """Series data for one experiment (one paper figure/table).

    Attributes
    ----------
    experiment_id:
        DESIGN.md identifier (``"E1"``, ``"E4"``, ...).
    title:
        Human-readable description.
    x_label / x_values:
        The swept parameter.
    series:
        ``{scheme_name: [mean RT at each x]}``.
    optimal:
        Mean optimal response time at each x (the paper's dashed line).
    config:
        The fixed parameters, for the report header.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: List
    series: Dict[str, List[float]]
    optimal: List[float]
    config: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, values in self.series.items():
            if len(values) != len(self.x_values):
                raise WorkloadError(
                    f"series {name!r} has {len(values)} points for "
                    f"{len(self.x_values)} x-values"
                )
        if len(self.optimal) != len(self.x_values):
            raise WorkloadError(
                f"optimal series has {len(self.optimal)} points for "
                f"{len(self.x_values)} x-values"
            )

    @property
    def scheme_names(self) -> List[str]:
        """Schemes present in the result, insertion order."""
        return list(self.series)

    def deviation_series(self, scheme: str) -> List[float]:
        """Relative deviation from optimal per x: ``(rt - opt) / opt``."""
        return [
            (rt - opt) / opt if opt else 0.0
            for rt, opt in zip(self.series[scheme], self.optimal)
        ]

    def winner_at(self, index: int) -> str:
        """Scheme with the lowest mean RT at x-position ``index``."""
        return min(
            self.series, key=lambda name: (self.series[name][index], name)
        )

    def winners(self) -> List[str]:
        """The winner at every x-position."""
        return [self.winner_at(i) for i in range(len(self.x_values))]

    def rows(self) -> List[Tuple]:
        """Tabular view: one row per x with optimal and each scheme."""
        out = []
        for i, x in enumerate(self.x_values):
            row = [x, self.optimal[i]]
            row.extend(self.series[name][i] for name in self.series)
            out.append(tuple(row))
        return out

    def header(self) -> List[str]:
        """Column names aligned with :meth:`rows`."""
        return (
            [self.x_label, "OPT"]
            + [scheme_label(name) for name in self.series]
        )


def mean_rt_for_shapes(
    evaluator: SchemeEvaluator,
    shapes: Sequence[Sequence[int]],
) -> Tuple[Dict[str, float], float]:
    """Per-scheme mean RT over all placements of ``shapes``, plus mean OPT."""
    results = evaluator.evaluate_shapes(shapes)
    means = {r.scheme: r.mean_response_time for r in results}
    return means, results[0].mean_optimal


def sweep_shapes(
    experiment_id: str,
    title: str,
    grid: Grid,
    num_disks: int,
    x_label: str,
    points: Sequence[Tuple[object, Sequence[Sequence[int]]]],
    schemes: Optional[Sequence[str]] = None,
    config: Optional[Dict[str, object]] = None,
) -> ExperimentResult:
    """Run a one-configuration sweep: each x-point is a set of shapes.

    Allocations are built once per scheme and reused across all x-points.
    """
    schemes = list(schemes or PAPER_SCHEMES)
    evaluator = SchemeEvaluator(grid, num_disks, schemes)
    x_values = []
    series: Dict[str, List[float]] = {name: [] for name in schemes}
    optimal: List[float] = []
    for x, shapes in points:
        means, opt = mean_rt_for_shapes(evaluator, shapes)
        x_values.append(x)
        optimal.append(opt)
        for name in schemes:
            series[name].append(means[name])
    full_config = {"grid": grid.dims, "num_disks": num_disks}
    full_config.update(config or {})
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        x_values=x_values,
        series=series,
        optimal=optimal,
        config=full_config,
    )


def strided_placements(
    grid: Grid, shape: Sequence[int], max_placements: Optional[int]
) -> QueryBatch:
    """Every placement of ``shape``, thinned to ``max_placements`` rows.

    A batch with more rows than ``max_placements`` keeps every
    ``len // max_placements``-th row from the first, up to
    ``max_placements`` of them — a deterministic stride that bounds the
    exact planner's work.  ``None`` keeps every placement.
    """
    batch = placement_batch(grid, shape)
    if max_placements is not None and len(batch) > max_placements:
        stride = len(batch) // max_placements
        batch = batch.take(slice(0, stride * max_placements, stride))
    return batch


def default_area_sweep(grid: Grid, max_area: Optional[int] = None) -> List[int]:
    """Query areas for the size sweep: every area with >= 1 fitting shape.

    Follows the paper's 1 -> 1024 range on the default grid; areas that no
    shape realizes inside the grid (large primes etc.) are skipped.
    """
    from repro.core.query import shapes_with_area

    limit = max_area if max_area is not None else grid.num_buckets
    areas = []
    for area in range(1, limit + 1):
        if next(iter(shapes_with_area(grid, area, max_shapes=1)), None):
            areas.append(area)
    return areas
