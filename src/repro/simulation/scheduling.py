"""Batch scheduling: ordering a closed-loop batch of queries.

The closed-loop simulator showed that in a saturated batch, per-query
latency is queue-depth-bound (experiment X2's caveat).  Which *order* the
batch is issued in then matters: issuing all the long scans first starves
everything behind them, and issuing queries that hammer the same disk
back-to-back leaves other disks idle.  Two classic orderings:

* :func:`lpt_order` — longest processing time first: the standard
  makespan heuristic (big queries go first so their tails overlap the
  small queries' work, not extend past it).
* :func:`balanced_order` — greedy min-max: repeatedly issue the query
  that raises the current busiest accumulated disk load the least,
  keeping all queues level as the batch streams in.

:func:`compare_orderings` replays a batch through the closed-loop
simulator under each policy and reports makespan and mean latency — the
numbers an executor would use to pick a policy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.cost import batch_disk_counts
from repro.core.exceptions import SimulationError
from repro.core.query import RangeQuery
from repro.simulation.disk import DiskModel
from repro.simulation.parallel_io import ParallelIOSimulator

__all__ = [
    "balanced_order",
    "compare_orderings",
    "lpt_order",
]


def _per_disk_work(
    allocation: DiskAllocation,
    queries: Sequence[RangeQuery],
) -> np.ndarray:
    """Bucket counts per (query, disk), shape ``(num_queries, M)``."""
    if not queries:
        raise SimulationError("batch contains no queries")
    return batch_disk_counts(allocation, queries)


def lpt_order(
    allocation: DiskAllocation,
    queries: Sequence[RangeQuery],
) -> List[int]:
    """Issue order: total work descending (ties: original position)."""
    queries = list(queries)
    work = _per_disk_work(allocation, queries)
    totals = work.sum(axis=1)
    return sorted(
        range(len(queries)), key=lambda i: (-totals[i], i)
    )


def balanced_order(
    allocation: DiskAllocation,
    queries: Sequence[RangeQuery],
) -> List[int]:
    """Issue order: greedily minimize the busiest accumulated disk.

    At each step, among the remaining queries pick the one whose
    addition leaves the maximum per-disk accumulated load smallest
    (ties: larger query first, then original position).
    """
    queries = list(queries)
    work = _per_disk_work(allocation, queries)
    totals = work.sum(axis=1)
    accumulated = np.zeros(allocation.num_disks, dtype=np.int64)
    remaining = set(range(len(queries)))
    order: List[int] = []
    while remaining:
        best = min(
            remaining,
            key=lambda i: (
                int((accumulated + work[i]).max()),
                -int(totals[i]),
                i,
            ),
        )
        order.append(best)
        accumulated += work[best]
        remaining.remove(best)
    return order


def compare_orderings(
    allocation: DiskAllocation,
    queries: Sequence[RangeQuery],
    disk: DiskModel = DiskModel(),
) -> Dict[str, Dict[str, float]]:
    """Replay the batch under each policy; report makespan and latency.

    Policies: ``"arrival"`` (the given order), ``"lpt"``,
    ``"balanced"``.  Makespan differences come purely from ordering —
    total work is identical across policies.
    """
    queries = list(queries)
    if not queries:
        raise SimulationError("batch contains no queries")
    simulator = ParallelIOSimulator(allocation, disk)
    orders = {
        "arrival": list(range(len(queries))),
        "lpt": lpt_order(allocation, queries),
        "balanced": balanced_order(allocation, queries),
    }
    report = {}
    for policy, order in orders.items():
        result = simulator.run([queries[i] for i in order])
        report[policy] = {
            "makespan_ms": result.makespan_ms,
            "mean_latency_ms": result.mean_latency_ms,
            "max_latency_ms": result.max_latency_ms,
        }
    return report
