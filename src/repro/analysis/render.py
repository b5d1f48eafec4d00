"""Text rendering of allocation diagnostics (for the CLI and reports)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.profile import (
    _gap_to_optimal,
    _profile,
    same_disk_distance,
)
from repro.core.allocation import DiskAllocation
from repro.core.engine import ResponseTimeEngine
from repro.core.exceptions import QueryError

__all__ = [
    "render_allocation_profile",
    "render_disk_loads",
    "render_heatmap",
    "render_shape_profiles",
]


def render_heatmap(values: np.ndarray, zero_char: str = ".") -> str:
    """A 2-d integer array as a character map.

    Zero renders as ``zero_char``; 1-9 as digits; anything above as
    ``#``.  Used for sub-optimality maps, where zeros (optimal
    placements) should recede visually.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise QueryError(
            f"heatmap rendering is 2-d only, got shape {values.shape}"
        )

    def cell(v: int) -> str:
        if v == 0:
            return zero_char
        if 1 <= v <= 9:
            return str(int(v))
        return "#"

    return "\n".join(
        " ".join(cell(int(v)) for v in row) for row in values
    )


def render_disk_loads(loads: np.ndarray, width: int = 40) -> str:
    """Horizontal bar chart of per-disk loads."""
    loads = np.asarray(loads)
    if loads.size == 0:
        raise QueryError("no disk loads to render")
    peak = max(int(loads.max()), 1)
    lines = []
    for disk, load in enumerate(loads):
        bar = "#" * max(round(int(load) / peak * width), 0)
        lines.append(f"disk {disk:>3d} | {bar} {int(load)}")
    return "\n".join(lines)


def render_shape_profiles(
    allocation: DiskAllocation,
    shapes: Sequence[Sequence[int]],
) -> str:
    """One profile row per query shape, all swept on one engine."""
    return _profile_rows(ResponseTimeEngine(allocation), shapes)


def _profile_rows(
    engine: ResponseTimeEngine, shapes: Sequence[Sequence[int]]
) -> str:
    header = (
        f"{'shape':>10s} {'OPT':>4s} {'mean':>7s} {'p50':>6s} "
        f"{'p90':>6s} {'p99':>6s} {'worst':>6s} {'frac opt':>9s}"
    )
    lines = [header]
    for shape in shapes:
        profile = _profile(engine, shape)
        lines.append(
            f"{str(tuple(profile.shape)):>10s} {profile.optimal:>4d} "
            f"{profile.mean:7.3f} {profile.p50:6.1f} "
            f"{profile.p90:6.1f} {profile.p99:6.1f} "
            f"{profile.worst:>6d} {profile.fraction_optimal:9.4f}"
        )
    return "\n".join(lines)


def render_allocation_profile(
    allocation: DiskAllocation,
    shape: Sequence[int],
) -> str:
    """Full diagnostic block: profile, distance stats, heat map.

    The heat map is only included for 2-d grids (it is a picture of the
    placement plane).
    """
    engine = ResponseTimeEngine(allocation)
    sections = [_profile_rows(engine, [shape])]
    distance = same_disk_distance(allocation)
    sections.append(
        f"same-disk distance: min {distance['min']:.0f}, "
        f"mean-nearest {distance['mean_nearest']:.2f}"
    )
    sections.append("storage loads:")
    sections.append(render_disk_loads(allocation.disk_loads()))
    if allocation.grid.ndim == 2:
        times, optimum = _gap_to_optimal(engine, shape)
        gap = times - optimum
        sections.append(
            f"sub-optimality map for shape {tuple(shape)} "
            "(RT - OPT per placement; '.' = optimal):"
        )
        sections.append(render_heatmap(gap))
    return "\n\n".join(sections)
