"""X6 (extension) — re-placement cost of declustering under growth.

The paper's setting is static: the grid is fixed and the allocation
computed once.  Real grid files grow, and every directory split changes
bucket coordinates — so a *coordinate-based* declustering rule reassigns
buckets wholesale, and the data behind them must move.  This experiment
feeds an identical record stream into a dynamic grid file under each
scheme and reports the cumulative **records migrated** (the data-movement
bill) next to final query performance.

What it shows: all of the 1994 methods are *globally coordinate-
dependent* — inserting one boundary early in an axis renumbers every
bucket after it, and (for HCAM) re-threads the whole curve — so growth
costs several full-database moves' worth of migration regardless of
method.  Declustering quality and placement *stability* are independent
axes, and the 1994 literature only measured the first.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.gridfile.dynamic import DynamicGridFile
from repro.obs.trace import trace, trace_event
from repro.workloads.datasets import uniform_dataset

__all__ = [
    "DEFAULT_SCHEMES",
    "render",
    "run",
]

DEFAULT_SCHEMES = ("dm", "fx-auto", "hcam", "roundrobin")


def run(
    num_records: int = 1500,
    num_disks: int = 8,
    bucket_capacity: int = 16,
    schemes: Optional[Sequence[str]] = None,
    seed: int = 5,
) -> Dict[str, Dict[str, float]]:
    """Grow a file per scheme from one identical record stream.

    Returns per-scheme rows: final bucket count, splits, migrated
    records (cumulative), migrated-to-stored ratio, and the mean RT of a
    small value-range query on the final file.
    """
    data = uniform_dataset(num_records, 2, seed=seed)
    rows: Dict[str, Dict[str, float]] = {}
    for scheme in schemes or DEFAULT_SCHEMES:
        gridfile = DynamicGridFile(
            [(0.0, 1.0), (0.0, 1.0)],
            num_disks=num_disks,
            scheme=scheme,
            bucket_capacity=bucket_capacity,
        )
        with trace("gridfile.grow", scheme=scheme, records=num_records):
            gridfile.insert_many(data.values)
            stats = gridfile.stats()
            trace_event("gridfile.grown", scheme=scheme, **stats)
        query = gridfile.range_query([(0.30, 0.45), (0.30, 0.45)])
        execution = gridfile.execute(query)
        rows[scheme] = {
            "buckets": float(stats["num_buckets"]),
            "splits": float(stats["num_splits"]),
            "records_migrated": float(stats["records_migrated"]),
            "migration_ratio": (
                stats["records_migrated"] / max(num_records, 1)
            ),
            "final_query_rt": float(execution.response_time),
            "final_query_opt": float(execution.optimal),
        }
    return rows


def render(rows: Dict[str, Dict[str, float]]) -> str:
    """ASCII table of the growth comparison."""
    from repro.core.registry import scheme_label

    header = (
        f"{'scheme':12s} {'buckets':>8s} {'splits':>7s} "
        f"{'migrated':>9s} {'x stored':>9s} {'final RT':>9s} "
        f"{'OPT':>5s}"
    )
    lines = ["[X6] re-placement cost under growth", header]
    for scheme, row in rows.items():
        lines.append(
            f"{scheme_label(scheme):12s} {row['buckets']:8.0f} "
            f"{row['splits']:7.0f} {row['records_migrated']:9.0f} "
            f"{row['migration_ratio']:9.2f} "
            f"{row['final_query_rt']:9.0f} {row['final_query_opt']:5.0f}"
        )
    return "\n".join(lines)
