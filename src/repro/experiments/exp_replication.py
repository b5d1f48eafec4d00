"""X4 (extension) — what two-copy replication buys at query time.

The paper excludes replication; this experiment quantifies what that
exclusion leaves out.  For square queries of growing side it compares:

* **DM** and **HCAM**, primary copy only (the paper's world);
* **DM + chained copy**, with exact replica-choice planning;
* **DM primary + HCAM backup** ("orthogonal"), exact planning.

Expected shape: one extra copy with free replica choice erases most of
the gap to optimal — DM's 2x small-square penalty disappears entirely
(the planner always finds a perfect split), which is the power-of-two-
choices effect the later replication literature formalized.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cache import global_cache
from repro.core.cost import optimal_response_time
from repro.core.grid import Grid
from repro.core.query import QueryBatch
from repro.experiments.common import ExperimentResult, strided_placements
from repro.replication.allocation import (
    chained_replication,
    orthogonal_replication,
)
from repro.replication.planner import plan_batch

__all__ = [
    "DEFAULT_SIDES",
    "run",
]

DEFAULT_SIDES = (2, 3, 4, 6, 8)


def run(
    grid_dims: Sequence[int] = (16, 16),
    num_disks: int = 8,
    sides: Sequence[int] = DEFAULT_SIDES,
    method: str = "flow",
    max_placements: Optional[int] = 64,
) -> ExperimentResult:
    """Square-query sweep comparing single-copy and replicated layouts.

    ``max_placements`` caps the (deterministically strided) placements
    evaluated per side to bound the exact planner's work.
    """
    grid = Grid(grid_dims)
    dm = global_cache().allocation("dm", grid, num_disks)
    chained = chained_replication(dm)
    # Single-copy series run on the batch engine: one vectorized pass
    # per side instead of a Python loop over placements.
    dm_engine = global_cache().engine("dm", grid, num_disks)
    hcam_engine = global_cache().engine("hcam", grid, num_disks)
    orthogonal = orthogonal_replication(grid, num_disks, "dm", "hcam")

    series = {
        "dm": [],
        "hcam": [],
        "dm+chain": [],
        "dm+hcam": [],
    }
    x_values = []
    optimal = []
    placements_by_side = []
    for side in sides:
        shape = (side,) * grid.ndim
        placements = strided_placements(grid, shape, max_placements)
        if not len(placements):
            raise ValueError(
                f"side {side} does not fit in grid {grid.dims}"
            )
        x_values.append(side * side)
        optimal.append(
            optimal_response_time(side * side, num_disks)
        )
        placements_by_side.append(placements)
        # int64 sums are exact, so int(times.sum()) / len(...) equals
        # the old sum-of-ints division bit for bit.
        series["dm"].append(
            int(dm_engine.batch_response_times(placements).sum())
            / len(placements)
        )
        series["hcam"].append(
            int(hcam_engine.batch_response_times(placements).sum())
            / len(placements)
        )
    # Each replicated layout plans every side's placements in one batch.
    # Healthy planned times are whole numbers, so the float sums are
    # exact and each mean equals the old sum-of-ints division.
    everything = QueryBatch.concatenate(placements_by_side)
    for name, replicated in (("dm+chain", chained), ("dm+hcam", orthogonal)):
        times = plan_batch(replicated, everything, method)[0][0]
        start = 0
        for group in placements_by_side:
            stop = start + len(group)
            series[name].append(
                int(times[start:stop].sum()) / len(group)
            )
            start = stop
    return ExperimentResult(
        experiment_id="X4",
        title="Replication at query time: single copy vs two copies",
        x_label="query area (buckets)",
        x_values=x_values,
        series=series,
        optimal=[float(o) for o in optimal],
        config={
            "grid": grid.dims,
            "num_disks": num_disks,
            "method": method,
            "sides": tuple(sides),
        },
    )
