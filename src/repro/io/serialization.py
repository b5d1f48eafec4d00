"""Saving and loading allocations and experiment results.

A declustering decision is long-lived — the allocation chosen at load time
governs the physical layout for the life of the file — so it must be
persistable and auditable.  Formats:

* **Allocations** — a JSON document holding the grid, disk count, and the
  table (row-major nested lists).  Human-diffable, stable, and small at
  realistic grid sizes; checksummed so accidental edits are caught at
  load.
* **Experiment results** — JSON round-trip of
  :class:`~repro.experiments.common.ExperimentResult`, and CSV via
  :func:`repro.experiments.reporting.to_csv` for plotting tools.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Union

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import AllocationError
from repro.core.grid import Grid
from repro.experiments.common import ExperimentResult
from repro.replication.allocation import ReplicatedAllocation

__all__ = [
    "PathLike",
    "allocation_from_dict",
    "allocation_to_dict",
    "load_allocation",
    "load_replicated",
    "load_result",
    "result_from_dict",
    "result_to_dict",
    "save_allocation",
    "save_replicated",
    "save_result",
]

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 1


def _table_checksum(table: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(table, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def allocation_to_dict(allocation: DiskAllocation) -> dict:
    """The allocation as a JSON-ready dict (with integrity checksum)."""
    return {
        "format": "repro-allocation",
        "version": _FORMAT_VERSION,
        "grid": list(allocation.grid.dims),
        "num_disks": allocation.num_disks,
        "table": allocation.table.tolist(),
        "checksum": _table_checksum(allocation.table),
    }


def allocation_from_dict(document: dict) -> DiskAllocation:
    """Inverse of :func:`allocation_to_dict`, validating the checksum."""
    if document.get("format") != "repro-allocation":
        raise AllocationError(
            f"not an allocation document: format="
            f"{document.get('format')!r}"
        )
    if document.get("version") != _FORMAT_VERSION:
        raise AllocationError(
            f"unsupported allocation format version "
            f"{document.get('version')!r}"
        )
    grid = Grid(document["grid"])
    table = np.array(document["table"], dtype=np.int64)
    allocation = DiskAllocation(grid, int(document["num_disks"]), table)
    expected = document.get("checksum")
    actual = _table_checksum(allocation.table)
    if expected != actual:
        raise AllocationError(
            f"allocation checksum mismatch: stored {expected}, "
            f"computed {actual} (document edited or corrupted?)"
        )
    return allocation


def save_allocation(allocation: DiskAllocation, path: PathLike) -> None:
    """Write an allocation as JSON."""
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(allocation_to_dict(allocation), indent=2) + "\n"
    )


def load_allocation(path: PathLike) -> DiskAllocation:
    """Read an allocation written by :func:`save_allocation`."""
    path = pathlib.Path(path)
    return allocation_from_dict(json.loads(path.read_text()))


def save_replicated(
    replicated: ReplicatedAllocation, path: PathLike
) -> None:
    """Write both copies of a replicated allocation as one JSON document."""
    document = {
        "format": "repro-replicated-allocation",
        "version": _FORMAT_VERSION,
        "primary": allocation_to_dict(replicated.primary),
        "backup": allocation_to_dict(replicated.backup),
    }
    pathlib.Path(path).write_text(json.dumps(document, indent=2) + "\n")


def load_replicated(path: PathLike) -> ReplicatedAllocation:
    """Read a replicated allocation written by :func:`save_replicated`."""
    document = json.loads(pathlib.Path(path).read_text())
    if document.get("format") != "repro-replicated-allocation":
        raise AllocationError(
            "not a replicated-allocation document: format="
            f"{document.get('format')!r}"
        )
    return ReplicatedAllocation(
        allocation_from_dict(document["primary"]),
        allocation_from_dict(document["backup"]),
    )


def result_to_dict(result: ExperimentResult) -> dict:
    """An experiment result as a JSON-ready dict."""
    return {
        "format": "repro-experiment-result",
        "version": _FORMAT_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "x_label": result.x_label,
        "x_values": list(result.x_values),
        "series": {k: list(v) for k, v in result.series.items()},
        "optimal": list(result.optimal),
        "config": _jsonable(result.config),
    }


def result_from_dict(document: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    if document.get("format") != "repro-experiment-result":
        raise AllocationError(
            "not an experiment-result document: format="
            f"{document.get('format')!r}"
        )
    return ExperimentResult(
        experiment_id=document["experiment_id"],
        title=document["title"],
        x_label=document["x_label"],
        x_values=list(document["x_values"]),
        series={k: list(v) for k, v in document["series"].items()},
        optimal=list(document["optimal"]),
        config=dict(document.get("config", {})),
    )


def save_result(result: ExperimentResult, path: PathLike) -> None:
    """Write an experiment result as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2) + "\n"
    )


def load_result(path: PathLike) -> ExperimentResult:
    """Read an experiment result written by :func:`save_result`."""
    return result_from_dict(json.loads(pathlib.Path(path).read_text()))


def _jsonable(value):
    """Recursively convert tuples to lists so config survives JSON."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
