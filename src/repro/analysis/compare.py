"""Pairwise scheme comparison: who beats whom, query by query.

Means can hide structure: a scheme can lose on average yet win a class
of queries outright (DM on rows).  The dominance matrix makes that
visible — for every ordered scheme pair, the fraction of workload
queries where the row scheme answers strictly faster than the column
scheme.  A row of high values is a broadly dominant scheme; asymmetric
cells mark the specialist relationships the paper's "no clear winner"
conclusion is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import response_times
from repro.core.exceptions import (
    SchemeNotApplicableError,
    WorkloadError,
)
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.core.registry import get_scheme, scheme_label

__all__ = [
    "DominanceMatrix",
    "dominance_matrix",
    "render_dominance",
]


@dataclass(frozen=True)
class DominanceMatrix:
    """Win fractions per ordered scheme pair on one workload.

    ``wins[a][b]`` = fraction of queries where scheme ``a`` is strictly
    faster than scheme ``b`` (ties excluded, so
    ``wins[a][b] + wins[b][a] <= 1``).
    """

    schemes: Tuple[str, ...]
    wins: Dict[str, Dict[str, float]]
    num_queries: int

    def win_fraction(self, row: str, column: str) -> float:
        """Fraction of queries where ``row`` strictly beats ``column``."""
        return self.wins[row][column]

    def dominates(self, row: str, column: str) -> bool:
        """Whether ``row`` never loses to ``column`` on this workload."""
        # Win fractions are count / num_queries, so "never loses" is a
        # fraction that cannot be positive (exact float == is banned here).
        return not self.wins[column][row] > 0.0

    def best_overall(self) -> str:
        """Scheme with the highest mean win fraction against the field."""
        def mean_wins(name: str) -> float:
            others = [s for s in self.schemes if s != name]
            if not others:
                return 0.0
            return sum(self.wins[name][o] for o in others) / len(others)

        return max(self.schemes, key=lambda s: (mean_wins(s), s))


def dominance_matrix(
    grid: Grid,
    num_disks: int,
    queries: Sequence[RangeQuery],
    schemes: Optional[Sequence[str]] = None,
) -> DominanceMatrix:
    """Compute per-query win fractions for every scheme pair.

    Schemes whose preconditions fail on the configuration are dropped
    (as in the advisor).
    """
    from repro.core.registry import PAPER_SCHEMES

    batch = QueryBatch.of(queries, grid)
    if not len(batch):
        raise WorkloadError("workload contains no queries")
    names: List[str] = []
    times: Dict[str, np.ndarray] = {}
    for name in schemes or PAPER_SCHEMES:
        try:
            allocation = get_scheme(name).allocate(grid, num_disks)
        except SchemeNotApplicableError:
            continue
        names.append(name)
        times[name] = response_times(allocation, batch)
    if len(names) < 2:
        raise WorkloadError(
            "need at least two applicable schemes to compare, got "
            f"{names}"
        )
    wins: Dict[str, Dict[str, float]] = {
        a: {} for a in names
    }
    for a in names:
        for b in names:
            if a == b:
                wins[a][b] = 0.0
            else:
                wins[a][b] = float(
                    (times[a] < times[b]).mean()
                )
    return DominanceMatrix(
        schemes=tuple(names), wins=wins, num_queries=len(batch)
    )


def render_dominance(matrix: DominanceMatrix) -> str:
    """ASCII rendering: rows beat columns by the shown fraction."""
    labels = [scheme_label(name) for name in matrix.schemes]
    width = max(len(label) for label in labels) + 1
    header = " " * width + " ".join(
        f"{label:>{width}s}" for label in labels
    )
    lines = [
        f"dominance matrix over {matrix.num_queries} queries "
        "(row strictly beats column)",
        header,
    ]
    for name, label in zip(matrix.schemes, labels):
        cells = " ".join(
            f"{matrix.wins[name][other]:>{width}.2f}"
            if other != name
            else " " * (width - 1) + "-"
            for other in matrix.schemes
        )
        lines.append(f"{label:>{width}s}{cells}")
    return "\n".join(lines)
