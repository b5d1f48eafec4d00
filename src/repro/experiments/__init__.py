"""The paper's experiment suite (E1-E5) plus ablations (X1) and the runner.

Only the shared result type and the report helpers are re-exported.
Each ``exp_*`` module is imported on demand (``from repro.experiments
import exp_growth``), so importing the runner does not load every
experiment.
"""

from repro.experiments.common import (
    ExperimentResult,
    default_area_sweep,
    mean_rt_for_shapes,
    sweep_shapes,
)
from repro.experiments.reporting import (
    ascii_plot,
    render_deviation_table,
    render_table,
    to_csv,
)

__all__ = [
    "ExperimentResult",
    "sweep_shapes",
    "mean_rt_for_shapes",
    "default_area_sweep",
    "render_table",
    "render_deviation_table",
    "to_csv",
    "ascii_plot",
]
