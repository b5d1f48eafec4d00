"""Allocation diagnostics: shape profiles, disk heat and their renderings."""

from repro.analysis.profile import (
    ShapeProfile,
    disk_heat,
    heat_imbalance,
    same_disk_distance,
    shape_profile,
    suboptimality_map,
)
from repro.analysis.render import (
    render_allocation_profile,
    render_disk_loads,
    render_heatmap,
    render_shape_profiles,
)

__all__ = [
    "ShapeProfile",
    "shape_profile",
    "suboptimality_map",
    "disk_heat",
    "heat_imbalance",
    "same_disk_distance",
    "render_heatmap",
    "render_disk_loads",
    "render_shape_profiles",
    "render_allocation_profile",
]
