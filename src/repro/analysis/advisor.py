"""Declustering advisor: pick a method for a relation from its workload.

The paper's final conclusion — "since there is no clear winner, parallel
database systems must support a number of declustering methods", and the
choice should use "information about common queries on a relation" — as a
library feature: describe the workload, get a ranked recommendation.

The advisor evaluates every candidate scheme that is *applicable* to the
configuration (ECC silently drops out of non-power-of-two setups, exactly
as a real system would skip it), optionally including the annealed
workload-aware allocation, and ranks by mean response time on the supplied
queries with ties broken by worst case, then by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.allocation import DiskAllocation
from repro.core.evaluator import evaluate_allocation_on_queries
from repro.core.exceptions import (
    SchemeNotApplicableError,
    WorkloadError,
)
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.core.registry import get_scheme, scheme_label

__all__ = [
    "DEFAULT_CANDIDATES",
    "Recommendation",
    "advise",
    "render_recommendations",
]

#: Candidates offered by default: the paper's four methods plus the
#: strongest post-paper fixed schemes (2-d cyclic/EXH; k-d lattice,
#: which covers grids where the cyclic scheme is not applicable).
DEFAULT_CANDIDATES = (
    "dm", "fx-auto", "ecc", "hcam", "cyclic-exh", "lattice",
)


@dataclass(frozen=True)
class Recommendation:
    """One ranked row of the advisor's output."""

    scheme: str
    mean_response_time: float
    mean_optimal: float
    worst_response_time: int
    fraction_optimal: float
    allocation: DiskAllocation

    @property
    def label(self) -> str:
        """Display label of the recommended scheme."""
        return scheme_label(self.scheme)

    @property
    def mean_relative_deviation(self) -> float:
        """``(mean RT - mean OPT) / mean OPT``."""
        if self.mean_optimal == 0:
            return 0.0
        return (
            self.mean_response_time - self.mean_optimal
        ) / self.mean_optimal


def advise(
    grid: Grid,
    num_disks: int,
    queries: Sequence[RangeQuery],
    candidates: Optional[Sequence[str]] = None,
    include_workload_aware: bool = False,
) -> List[Recommendation]:
    """Rank applicable schemes for a workload, best first.

    Parameters
    ----------
    grid / num_disks:
        The configuration to decluster.
    queries:
        The workload sample driving the ranking (and, when enabled, the
        annealing).
    candidates:
        Scheme names to consider; default :data:`DEFAULT_CANDIDATES`.
    include_workload_aware:
        Also anneal a workload-specific allocation (slower; usually wins).
    """
    queries = list(queries)
    if not queries:
        raise WorkloadError("the advisor needs a non-empty workload")
    batch = QueryBatch.of(queries, grid)
    names = list(candidates or DEFAULT_CANDIDATES)
    if include_workload_aware and "workload-aware" not in names:
        names.append("workload-aware")

    recommendations: List[Recommendation] = []
    for name in names:
        if name == "workload-aware":
            from repro.schemes.workload_aware import WorkloadAwareScheme

            scheme = WorkloadAwareScheme(queries=queries)
        else:
            scheme = get_scheme(name)
        try:
            allocation = scheme.allocate(grid, num_disks)
        except SchemeNotApplicableError:
            continue  # e.g. ECC on a non-power-of-two configuration
        result = evaluate_allocation_on_queries(
            allocation, batch, scheme_name=name
        )
        recommendations.append(
            Recommendation(
                scheme=name,
                mean_response_time=result.mean_response_time,
                mean_optimal=result.mean_optimal,
                worst_response_time=result.worst_response_time,
                fraction_optimal=result.fraction_optimal,
                allocation=allocation,
            )
        )
    if not recommendations:
        raise WorkloadError(
            "no candidate scheme is applicable to "
            f"grid {grid.dims} with {num_disks} disks"
        )
    recommendations.sort(
        key=lambda r: (
            r.mean_response_time,
            r.worst_response_time,
            r.scheme,
        )
    )
    return recommendations


def render_recommendations(
    recommendations: Sequence[Recommendation],
) -> str:
    """ASCII table of the advisor's ranking."""
    lines = [
        f"{'rank':>4s} {'scheme':14s} {'mean RT':>9s} {'opt':>7s} "
        f"{'dev':>8s} {'worst':>6s} {'frac opt':>9s}"
    ]
    for rank, rec in enumerate(recommendations, start=1):
        lines.append(
            f"{rank:4d} {rec.label:14s} {rec.mean_response_time:9.4f} "
            f"{rec.mean_optimal:7.4f} "
            f"{rec.mean_relative_deviation:+8.4f} "
            f"{rec.worst_response_time:6d} "
            f"{rec.fraction_optimal:9.4f}"
        )
    return "\n".join(lines)
