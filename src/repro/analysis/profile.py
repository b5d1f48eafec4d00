"""Allocation diagnostics: where and why an allocation is sub-optimal.

Tools for inspecting a materialized allocation beyond a single mean:

* :func:`shape_profile` — full response-time distribution of one query
  shape over all placements (mean / percentiles / worst, fraction optimal).
* :func:`disk_heat` — per-disk access totals under a workload: which disks
  a workload actually hammers.
* :func:`same_disk_distance` — minimum and mean Manhattan distance between
  buckets sharing a disk: the geometric "spread" that ECC achieves through
  code distance and HCAM through curve locality.
* :func:`suboptimality_map` — per-placement map of RT - OPT for a shape,
  for locating the bad regions of an allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.cost import batch_disk_counts, optimal_response_time
from repro.core.engine import ResponseTimeEngine
from repro.core.exceptions import QueryError
from repro.core.query import RangeQuery

__all__ = [
    "ShapeProfile",
    "disk_heat",
    "heat_imbalance",
    "same_disk_distance",
    "shape_profile",
    "suboptimality_map",
]


@dataclass(frozen=True)
class ShapeProfile:
    """Distribution of a shape's response time over all placements."""

    shape: Tuple[int, ...]
    optimal: int
    mean: float
    p50: float
    p90: float
    p99: float
    worst: int
    fraction_optimal: float
    num_placements: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "shape": self.shape,
            "optimal": self.optimal,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "worst": self.worst,
            "fraction_optimal": self.fraction_optimal,
            "num_placements": self.num_placements,
        }


def _gap_to_optimal(
    engine: ResponseTimeEngine, shape: Sequence[int]
) -> Tuple[np.ndarray, int]:
    """``shape``'s RT at every placement and its OPT, on ``engine``."""
    shape = tuple(int(s) for s in shape)
    times = engine.sliding_response_times(shape)
    if times.size == 0:
        raise QueryError(
            f"shape {shape} does not fit in grid {engine.grid.dims}"
        )
    area = int(np.prod(shape))
    return times, optimal_response_time(area, engine.num_disks)


def _profile(engine: ResponseTimeEngine, shape: Sequence[int]) -> ShapeProfile:
    """:func:`shape_profile` on an engine, for sweeps of many shapes."""
    times, optimum = _gap_to_optimal(engine, shape)
    flat = times.ravel()
    return ShapeProfile(
        shape=tuple(int(s) for s in shape),
        optimal=optimum,
        mean=float(flat.mean()),
        p50=float(np.percentile(flat, 50)),
        p90=float(np.percentile(flat, 90)),
        p99=float(np.percentile(flat, 99)),
        worst=int(flat.max()),
        fraction_optimal=float((flat == optimum).mean()),
        num_placements=int(flat.size),
    )


def shape_profile(
    allocation: DiskAllocation, shape: Sequence[int]
) -> ShapeProfile:
    """Response-time distribution of ``shape`` over every placement."""
    return _profile(ResponseTimeEngine(allocation), shape)


def suboptimality_map(
    allocation: DiskAllocation, shape: Sequence[int]
) -> np.ndarray:
    """Per-placement ``RT - OPT`` array for one shape.

    Zero entries are placements answered optimally; the nonzero pattern
    shows where the allocation's structure fails the shape.
    """
    times, optimum = _gap_to_optimal(ResponseTimeEngine(allocation), shape)
    return times - optimum


def disk_heat(
    allocation: DiskAllocation, queries: Sequence[RangeQuery]
) -> np.ndarray:
    """Total bucket reads per disk across a workload, ``shape (M,)``.

    A perfectly balanced workload-allocation pair gives equal entries;
    skew here means some disks bottleneck the whole workload.
    """
    queries = list(queries)
    if not queries:
        raise QueryError("workload contains no queries")
    return batch_disk_counts(allocation, queries).sum(axis=0)


def heat_imbalance(heat: np.ndarray) -> float:
    """Max/mean ratio of a heat vector (1.0 = perfectly even)."""
    heat = np.asarray(heat, dtype=np.float64)
    if heat.size == 0 or heat.sum() == 0:
        raise QueryError("heat vector is empty or all-zero")
    return float(heat.max() / heat.mean())


def same_disk_distance(allocation: DiskAllocation) -> Dict[str, float]:
    """Manhattan-distance statistics between same-disk bucket pairs.

    Returns ``{"min": ..., "mean_nearest": ...}`` where ``min`` is the
    global minimum distance between any two buckets on one disk and
    ``mean_nearest`` averages, over buckets, the distance to the nearest
    same-disk neighbour.  Larger is better: a query must be at least
    ``min`` wide in some direction before any disk repeats.
    """
    grid = allocation.grid
    coords_by_disk: Dict[int, list] = {}
    for coords in grid.iter_buckets():
        coords_by_disk.setdefault(
            int(allocation.table[coords]), []
        ).append(coords)
    global_min = None
    nearest_sum = 0.0
    nearest_count = 0
    for bucket_list in coords_by_disk.values():
        if len(bucket_list) < 2:
            continue
        points = np.array(bucket_list, dtype=np.int64)
        # Pairwise Manhattan distances within the disk (small lists).
        diffs = np.abs(
            points[:, None, :] - points[None, :, :]
        ).sum(axis=2)
        np.fill_diagonal(diffs, np.iinfo(np.int64).max)
        nearest = diffs.min(axis=1)
        local_min = int(nearest.min())
        if global_min is None or local_min < global_min:
            global_min = local_min
        nearest_sum += float(nearest.sum())
        nearest_count += len(bucket_list)
    if nearest_count == 0:
        raise QueryError(
            "no disk holds two buckets; distance undefined"
        )
    return {
        "min": float(global_min),
        "mean_nearest": nearest_sum / nearest_count,
    }
