"""Run the full experiment suite (all paper figures/tables) in one call.

``run_all`` executes E1-E5, EPM, X1, X3-X5, X7 and the THM existence
search with the default (paper-scale) parameters and returns every result
keyed by experiment id; ``render_all`` turns that into the textual report
EXPERIMENTS.md is built from.  ``quick=True`` shrinks the sweeps for
smoke tests and CI.  (X6, the growth experiment, returns a different
result type and runs separately via ``repro.experiments.exp_growth`` —
``scripts/generate_report.py`` appends it to the full report.)

The suite runs in one process.  Every experiment is deterministic, so
the report depends only on ``quick`` — and a failed experiment would
fail the same way again, so the runner **fails fast**: the first
experiment that raises stops the run with a
:class:`~repro.core.exceptions.RunnerError` naming its key.  With a
checkpoint every completed result is persisted immediately, so
``run_all(..., resume=True)`` — CLI: ``experiment all --resume`` —
skips finished experiments after a failure or kill.  Fresh and resumed
runs produce byte-identical reports.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.exceptions import RunnerError
from repro.experiments.checkpoint import RunCheckpoint
from repro.experiments.exp_num_attributes import deviation_table
from repro.experiments.reporting import render_table
from repro.faults.io import maybe_io_fault
from repro.obs.metrics import global_registry
from repro.obs.trace import trace
from repro.theory.conditions import render_table as render_conditions
from repro.theory.search import SearchResult

__all__ = [
    "EXPERIMENT_KEYS",
    "render_all",
    "render_thm",
    "run_all",
    "run_experiment",
]

#: Independent experiment jobs, in the canonical execution/report order.
#: ``E4`` and ``X7`` each expand to a result pair (``E4a``/``E4b``,
#: ``X7a``/``X7b``).
EXPERIMENT_KEYS = (
    "E1", "E2", "E3", "E4", "E5", "X1", "EPM", "X3", "X4", "X5", "X7",
    "THM",
)

#: Jobs whose result is a pair, and the report keys the pair expands to.
_PAIR_KEYS: Dict[str, Tuple[str, str]] = {
    "E4": ("E4a", "E4b"),
    "X7": ("X7a", "X7b"),
}

#: Quick-mode keyword arguments per experiment (paper-scale runs pass none).
_QUICK_KWARGS: Dict[str, Dict[str, object]] = {
    "E1": {
        "grid_dims": (16, 16),
        "num_disks": 8,
        "areas": (1, 4, 16, 64, 256),
    },
    "E2": {"grid_dims": (16, 16), "num_disks": 8, "area": 16},
    "E3": {
        "num_disks": 8,
        "grid_2d": (16, 16),
        "grid_3d": (8, 8, 8),
        "sides_2d": (2, 4, 8, 16),
        "sides_3d": (2, 4, 8),
    },
    "E4": {
        "grid_dims": (16, 16),
        "disk_counts": (2, 4, 8, 16),
        "large_shape": (8, 8),
    },
    "E5": {"num_disks": 8, "grid_sides": (8, 16, 32), "shape": (2, 2)},
    "X1": {"grid_dims": (16, 16), "disk_counts": (5, 7, 8)},
    "EPM": {"grid_dims": (8, 8, 8), "num_disks": 8},
    "X3": {"grid_dims": (16, 16), "disk_counts": (4, 8)},
    "X4": {
        "grid_dims": (8, 8),
        "num_disks": 4,
        "sides": (2, 3),
        "max_placements": 16,
    },
    "X5": {
        "grid_dims": (16, 16),
        "num_disks": 4,
        "num_queries": 100,
        "rates_per_second": (10.0, 80.0),
    },
    "X7": {
        "grid_dims": (8, 8),
        "num_disks": 4,
        "side": 2,
        "failure_counts": (0, 1, 2),
        "num_scenarios": 2,
        "max_placements": 12,
    },
    "THM": {"max_disks": 6},
}

_FULL_KWARGS: Dict[str, Dict[str, object]] = {
    "THM": {"max_disks": 7},
}


def _job_callable(key: str):
    # Deferred so importing the runner does not import every experiment.
    from repro.experiments import (
        exp_beyond_paper,
        exp_curve_ablation,
        exp_db_size,
        exp_degraded,
        exp_load_sweep,
        exp_num_attributes,
        exp_num_disks,
        exp_partial_match,
        exp_query_shape,
        exp_query_size,
        exp_replication,
    )
    from repro.theory.search import impossibility_frontier

    jobs = {
        "E1": exp_query_size.run,
        "E2": exp_query_shape.run,
        "E3": exp_num_attributes.run,
        "E4": exp_num_disks.run,
        "E5": exp_db_size.run,
        "X1": exp_curve_ablation.run,
        "EPM": exp_partial_match.run,
        "X3": exp_beyond_paper.run,
        "X4": exp_replication.run,
        "X5": exp_load_sweep.run,
        "X7": exp_degraded.run,
        "THM": impossibility_frontier,
    }
    return jobs[key]


def run_experiment(key: str, quick: bool = False) -> object:
    """Run one experiment job by key (pair jobs return their result pair).

    Before doing real work it passes the ``experiment.<KEY>`` point of
    the ``REPRO_IO_FAULTS`` chaos plan (see :mod:`repro.faults.io`), so
    the checkpoint and resume paths can be exercised end to end.  Any
    failure is raised as a :class:`~repro.core.exceptions.RunnerError`
    naming the key.
    """
    if key not in EXPERIMENT_KEYS:
        raise KeyError(
            f"unknown experiment key {key!r}; known: {EXPERIMENT_KEYS}"
        )
    kwargs = (_QUICK_KWARGS if quick else _FULL_KWARGS).get(key, {})
    try:
        maybe_io_fault(f"experiment.{key}")
        with trace("runner.experiment", key=key, quick=quick):
            start = time.perf_counter()
            result = _job_callable(key)(**kwargs)
            global_registry().observe(
                f"experiment.{key}.seconds", time.perf_counter() - start
            )
    except Exception as exc:  # qa502: allow — re-raised as RunnerError naming the failed key
        raise RunnerError(f"experiment {key} failed: {exc!r}") from exc
    return result


def _assemble(raw: Dict[str, object]) -> Dict[str, object]:
    """Flatten job outputs into the canonical result dict (fixed order)."""
    results: Dict[str, object] = {}
    for key in EXPERIMENT_KEYS:
        if key in _PAIR_KEYS:
            first, second = _PAIR_KEYS[key]
            results[first], results[second] = raw[key]  # type: ignore[misc]
        else:
            results[key] = raw[key]
    return results


def run_all(
    quick: bool = False,
    workers: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> Dict[str, object]:
    """Execute the whole suite; keys match DESIGN.md's experiment index.

    ``workers`` accepts only ``None`` or ``1``: the suite always runs in
    this process.  The keyword is kept solely for
    ``perfbench/workload_suite.py``, which still passes ``workers=None``;
    any other value raises :class:`ValueError`.

    The first experiment that raises stops the run with a
    :class:`~repro.core.exceptions.RunnerError` naming its key.
    ``checkpoint`` / ``resume`` persist every completed result to the
    given file; with ``resume=True`` previously completed experiments
    are loaded instead of re-run.  The file is deleted after a fully
    successful run, so a later ``resume`` starts fresh rather than
    serving stale results.
    """
    if workers not in (None, 1):
        raise ValueError(
            f"workers must be None or 1 (the suite runs in one "
            f"process): {workers!r}"
        )
    if resume and checkpoint is None:
        raise ValueError("resume=True needs a checkpoint path")

    store: Optional[RunCheckpoint] = None
    raw: Dict[str, object] = {}
    if checkpoint is not None:
        store = RunCheckpoint(checkpoint, quick=quick)
        if resume:
            raw.update(store.load())
    for key in EXPERIMENT_KEYS:
        if key in raw:
            continue
        raw[key] = run_experiment(key, quick)
        if store is not None:
            store.record(key, raw[key])
    results = _assemble(raw)
    if store is not None:
        store.clear()
    return results


def render_thm(results: List[SearchResult]) -> str:
    """Textual rendering of the impossibility-frontier search."""
    lines = [
        "[THM] strictly optimal range-query declusterings (exhaustive search)",
        " M | grid | exists | nodes explored",
        "---+------+--------+---------------",
    ]
    for m, result in enumerate(results, start=1):
        side = max(m, 2)
        verdict = "yes" if result.exists else "no"
        lines.append(
            f"{m:>2} | {side}x{side:<3} | {verdict:<6} | "
            f"{result.nodes_explored}"
        )
    return "\n".join(lines)


def render_all(results: Dict[str, object]) -> str:
    """The whole suite as one text report."""
    sections = []
    for key in ("E1", "E2"):
        sections.append(render_table(results[key]))
    comparison = results["E3"]
    sections.append(render_table(comparison.result_2d))
    sections.append(render_table(comparison.result_3d))
    lines = [
        "[E3] mean relative deviation from optimal, "
        "2-d vs 3-d (matched sides >= 4)"
    ]
    min_side = 4 if any(
        s >= 4 for s in comparison.common_sides()
    ) else 1
    for scheme, (dev2, dev3) in deviation_table(
        comparison, min_side=min_side
    ).items():
        lines.append(f"  {scheme:8s} 2-d: {dev2:.4f}   3-d: {dev3:.4f}")
    sections.append("\n".join(lines))
    for key in ("E4a", "E4b", "E5", "X1", "EPM", "X3", "X4", "X5",
                "X7a", "X7b"):
        sections.append(render_table(results[key]))
    sections.append(render_thm(results["THM"]))
    sections.append("[T1] " + render_conditions())
    return "\n\n".join(sections)
