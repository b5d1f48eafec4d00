"""X3 (extension) — the 1994 field vs its successors.

The paper closes by noting there is no clear winner among DM/CMD, FX,
ECC, HCAM.  This experiment adds the family that answered it: **cyclic
allocation** (RPHM / GFIB / EXH skip selection) — fixed schemes, one
modular multiplication per bucket, that dominate the 1994 methods on
small range queries.

The sweep replays the paper's small-query disk-count experiment (E4a) with
the extended scheme set, answering: how much was left on the table in
1994?
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.evaluator import SchemeEvaluator
from repro.core.grid import Grid
from repro.experiments.common import ExperimentResult

__all__ = [
    "DEFAULT_DISK_COUNTS",
    "EXTENDED_SCHEMES",
    "run",
]

EXTENDED_SCHEMES = (
    "dm", "fx-auto", "ecc", "hcam", "cyclic", "cyclic-gfib", "cyclic-exh",
)

DEFAULT_DISK_COUNTS = (4, 8, 16, 32)


def run(
    grid_dims: Sequence[int] = (32, 32),
    disk_counts: Sequence[int] = DEFAULT_DISK_COUNTS,
    shape: Sequence[int] = (3, 3),
    schemes: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Small-query disk sweep over the extended scheme set."""
    schemes = list(schemes or EXTENDED_SCHEMES)
    grid = Grid(grid_dims)
    shape = tuple(int(s) for s in shape)
    x_values = []
    series = {name: [] for name in schemes}
    optimal = []
    for num_disks in disk_counts:
        evaluator = SchemeEvaluator(grid, num_disks, schemes)
        results = evaluator.evaluate_shapes([shape])
        x_values.append(num_disks)
        optimal.append(results[0].mean_optimal)
        for result in results:
            series[result.scheme].append(result.mean_response_time)
    return ExperimentResult(
        experiment_id="X3",
        title=f"1994 methods vs cyclic successors, query {shape}",
        x_label="number of disks (M)",
        x_values=x_values,
        series=series,
        optimal=optimal,
        config={
            "grid": grid.dims,
            "shape": shape,
            "disk_counts": tuple(disk_counts),
        },
    )
