"""X7 (extension) — graceful degradation: performance and availability
under disk failures.

The paper's evaluation assumes ``M`` healthy disks; this experiment kills
some.  For a growing number of fail-stopped disks (scenarios sampled by a
seeded :class:`~repro.faults.models.FaultInjector`) it measures, per
scheme:

* **X7a — degraded response time**: mean completion time over the
  surviving disks for square queries at every (strided) placement.  For
  unreplicated layouts the buckets on failed disks are simply gone (the
  partial answer's cost); the ``dm+chain`` series plans around failures
  with the exact replica planner, so it keeps serving every bucket.
* **X7b — availability**: the fraction of (scenario, placement) pairs
  answered *in full*.  Unreplicated layouts lose every query that touches
  a failed disk; chained replication stays at 1.0 under any single
  failure and only starts losing queries when both copies of some bucket
  die (adjacent failures, for offset-1 chaining).

The optimal line of X7a is the failure-aware yardstick
``ceil(|Q| / (M - f))`` — even a perfect layout pays for shrinking
parallelism; X7b's optimal line is 1.0 (what full replication achieves
under single failures).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.cache import global_cache
from repro.core.exceptions import WorkloadError
from repro.core.grid import Grid
from repro.core.registry import PAPER_SCHEMES
from repro.experiments.common import ExperimentResult, strided_placements
from repro.faults.degraded import (
    batch_degraded_response_times,
    batch_query_availability,
    degraded_optimal_response_time,
)
from repro.faults.models import FaultInjector, FaultScenario
from repro.replication.allocation import chained_replication
from repro.replication.planner import plan_batch

__all__ = [
    "DEFAULT_FAILURE_COUNTS",
    "REPLICATED_SERIES",
    "run",
]

DEFAULT_FAILURE_COUNTS = (0, 1, 2, 3)

#: Name of the replicated series (DM primaries + chained backups).
REPLICATED_SERIES = "dm+chain"


def _sampled_scenarios(
    injector: FaultInjector,
    num_disks: int,
    num_failures: int,
    count: int,
) -> List[FaultScenario]:
    if num_failures == 0:
        return [FaultScenario.healthy(num_disks)]
    return injector.scenarios(num_disks, num_failures, count)


def run(
    grid_dims: Sequence[int] = (16, 16),
    num_disks: int = 8,
    side: int = 4,
    failure_counts: Sequence[int] = DEFAULT_FAILURE_COUNTS,
    num_scenarios: int = 4,
    seed: int = 11,
    method: str = "flow",
    max_placements: Optional[int] = 48,
    schemes: Optional[Sequence[str]] = None,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Sweep the number of failed disks; returns ``(X7a, X7b)``.

    ``X7a`` carries mean degraded response times, ``X7b`` the measured
    availability per series.  Failure scenarios are sampled
    deterministically from ``seed``; ``max_placements`` caps the
    (strided) query placements per scenario to bound the exact planner's
    work, exactly as X4 does.
    """
    grid = Grid(grid_dims)
    schemes = list(schemes or PAPER_SCHEMES)
    failure_counts = tuple(int(f) for f in failure_counts)
    if any(f < 0 or f >= num_disks for f in failure_counts):
        raise WorkloadError(
            f"failure counts must lie in [0, {num_disks}): "
            f"{failure_counts}"
        )
    allocations = {
        name: global_cache().allocation(name, grid, num_disks)
        for name in schemes
    }
    replicated = chained_replication(allocations[schemes[0]])

    shape = (side,) * grid.ndim
    placements = strided_placements(grid, shape, max_placements)
    if not len(placements):
        raise WorkloadError(
            f"query side {side} does not fit in grid {grid.dims}"
        )
    area = side ** grid.ndim

    # The (N, M) disk-count matrix is scenario-independent, so the batch
    # engine evaluates each scheme's whole placement set exactly once;
    # every failure scenario then reduces the same matrix.
    counts_by_scheme = {
        name: global_cache()
        .engine(name, grid, num_disks)
        .batch_disk_counts(placements)
        for name in schemes
    }

    injector = FaultInjector(seed)
    scenario_groups = [
        _sampled_scenarios(injector, num_disks, num_failures, num_scenarios)
        for num_failures in failure_counts
    ]
    # The replicated series plans every scenario of the sweep in one
    # batch: the pair-class counts are scenario-independent too.
    planned_times, planned_lost = plan_batch(
        replicated,
        placements,
        method,
        [scenario for group in scenario_groups for scenario in group],
    )
    series_names = schemes + [REPLICATED_SERIES]
    rt_series = {name: [] for name in series_names}
    avail_series = {name: [] for name in series_names}
    rt_optimal: List[float] = []
    x_values: List[int] = []
    row = 0
    for num_failures, scenarios in zip(failure_counts, scenario_groups):
        evaluations = len(scenarios) * len(placements)
        x_values.append(num_failures)
        rt_optimal.append(
            sum(
                degraded_optimal_response_time(area, scenario)
                for scenario in scenarios
            )
            / len(scenarios)
        )
        for name in schemes:
            counts = counts_by_scheme[name]
            total_rt = 0.0
            answered = 0
            for scenario in scenarios:
                # Accumulate in the scalar path's scenario-major,
                # query-minor order: Python-float addition is not
                # associative, and the report must stay byte-identical.
                for value in batch_degraded_response_times(
                    counts, scenario
                ):
                    total_rt += float(value)
                answered += int(
                    batch_query_availability(counts, scenario).sum()
                )
            rt_series[name].append(total_rt / evaluations)
            avail_series[name].append(answered / evaluations)
        first, row = row, row + len(scenarios)
        total_rt = 0.0
        for value in planned_times[first:row].ravel().tolist():
            total_rt += value
        answered = int((planned_lost[first:row] == 0).sum())
        rt_series[REPLICATED_SERIES].append(total_rt / evaluations)
        avail_series[REPLICATED_SERIES].append(answered / evaluations)

    config = {
        "grid": grid.dims,
        "num_disks": num_disks,
        "side": side,
        "num_scenarios": num_scenarios,
        "seed": seed,
        "method": method,
        "replicated": f"{schemes[0]}+chain",
    }
    rt_result = ExperimentResult(
        experiment_id="X7a",
        title=(
            "Degraded mode: mean response time vs failed disks "
            "(surviving buckets)"
        ),
        x_label="failed disks",
        x_values=list(x_values),
        series=rt_series,
        optimal=rt_optimal,
        config=dict(config),
    )
    avail_result = ExperimentResult(
        experiment_id="X7b",
        title=(
            "Degraded mode: availability vs failed disks "
            "(fraction of queries answered in full)"
        ),
        x_label="failed disks",
        x_values=list(x_values),
        series=avail_series,
        optimal=[1.0] * len(x_values),
        config=dict(config),
    )
    return rt_result, avail_result
