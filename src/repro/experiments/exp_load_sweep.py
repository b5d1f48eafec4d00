"""X5 (extension) — does declustering quality survive under load?

The paper's metric is single-query response time on idle disks.  This
experiment replays a small-query stream through the open-system simulator
(Poisson arrivals, 1993-era disks) across a range of arrival rates, from
nearly idle to saturation, and reports mean latency in milliseconds.

Expected shape: at light load the latency ordering equals the paper's
response-time ordering and the gap is the full ~2x (DM reads its 2x2
queries from 2 disks, HCAM/cyclic from 4); as the system saturates, every
scheme's latency is dominated by queueing on equal total work and the
*relative* gap shrinks to a few percent — the paper's metric is a
light-load metric, and that is exactly the regime where declustering
choice matters.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cache import global_cache
from repro.core.cost import optimal_response_time
from repro.core.grid import Grid
from repro.experiments.common import ExperimentResult
from repro.simulation.disk import DiskModel
from repro.simulation.open_system import saturation_sweep
from repro.workloads.queries import random_shape_batch

__all__ = [
    "DEFAULT_RATES",
    "DEFAULT_SCHEMES",
    "run",
]

DEFAULT_SCHEMES = ("dm", "hcam", "cyclic-exh")
DEFAULT_RATES = (10.0, 40.0, 60.0, 80.0, 100.0, 140.0, 200.0)


def run(
    grid_dims: Sequence[int] = (32, 32),
    num_disks: int = 8,
    shape: Sequence[int] = (2, 2),
    num_queries: int = 400,
    rates_per_second: Sequence[float] = DEFAULT_RATES,
    schemes: Optional[Sequence[str]] = None,
    disk: DiskModel = DiskModel(),
    seed: int = 3,
) -> ExperimentResult:
    """Mean query latency (ms) vs Poisson arrival rate, per scheme."""
    grid = Grid(grid_dims)
    schemes = list(schemes or DEFAULT_SCHEMES)
    shape = tuple(int(s) for s in shape)
    queries = random_shape_batch(grid, shape, num_queries, seed=seed)
    area = 1
    for side in shape:
        area *= side
    # Zero-load floor: a perfectly spread query's service time.
    floor_ms = disk.service_time_ms(
        optimal_response_time(area, num_disks)
    )
    series = {}
    for name in schemes:
        allocation = global_cache().allocation(name, grid, num_disks)
        reports = saturation_sweep(
            allocation, queries, rates_per_second, disk=disk, seed=seed
        )
        series[name] = [r.mean_latency_ms for r in reports]
    return ExperimentResult(
        experiment_id="X5",
        title=(
            f"Mean latency (ms) vs arrival rate, {shape} queries on "
            f"{num_disks} disks"
        ),
        x_label="arrival rate (queries/s)",
        x_values=list(rates_per_second),
        series=series,
        optimal=[floor_ms] * len(rates_per_second),
        config={
            "grid": grid.dims,
            "num_disks": num_disks,
            "shape": shape,
            "num_queries": num_queries,
            "seed": seed,
        },
    )
