"""Degraded-mode cost semantics: response time and availability under faults.

For an **unreplicated** :class:`~repro.core.allocation.DiskAllocation`
every bucket lives on exactly one disk, so a fail-stop is unforgiving: a
query touching any bucket of a failed disk cannot be answered completely —
it is *lost*.  The degraded metrics therefore split in two:

* **availability** — the fraction of queries that touch no failed disk
  (binary per query: answered in full or lost);
* **degraded response time** — the parallel completion time over the
  *surviving* disks only, with each disk's bucket count scaled by its
  straggler factor: ``max_d load_d * factor_d``.  For a lost query this is
  the time to retrieve what still exists (the partial answer a real system
  would return alongside the error).

Replicated layouts route around faults instead of losing queries; their
degraded semantics live in the replica planner
(:func:`repro.replication.planner.plan_query` with a ``scenario``, and
:func:`~repro.replication.planner.plan_batch` for whole batches) and the
availability helpers below that consult both copies.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.cost import (
    batch_disk_counts,
    buckets_per_disk,
    optimal_response_time,
)
from repro.core.exceptions import FaultError, QueryError
from repro.core.query import QueryBatch, RangeQuery
from repro.faults.models import FaultScenario
from repro.obs.trace import trace
from repro.replication.allocation import ReplicatedAllocation

__all__ = [
    "availability",
    "batch_degraded_response_times",
    "batch_query_availability",
    "degraded_buckets_per_disk",
    "degraded_optimal_response_time",
    "degraded_response_time",
    "query_is_available",
    "replicated_availability",
    "replicated_query_is_available",
]


def _check_scenario(num_disks: int, scenario: FaultScenario) -> None:
    if scenario.num_disks != num_disks:
        raise FaultError(
            f"scenario covers {scenario.num_disks} disks but the "
            f"allocation uses {num_disks}"
        )


def degraded_buckets_per_disk(
    allocation: DiskAllocation,
    query: RangeQuery,
    scenario: FaultScenario,
) -> np.ndarray:
    """Per-disk bucket counts with failed disks zeroed, ``shape (M,)``.

    The zeroed buckets are exactly the lost part of the query; compare
    with :func:`repro.core.cost.buckets_per_disk` to count them.
    """
    _check_scenario(allocation.num_disks, scenario)
    counts = buckets_per_disk(allocation, query).copy()
    for disk in scenario.failed:
        counts[disk] = 0
    return counts


def degraded_response_time(
    allocation: DiskAllocation,
    query: RangeQuery,
    scenario: FaultScenario,
) -> float:
    """Completion time over surviving disks: ``max_d load_d * factor_d``.

    Equals the healthy :func:`~repro.core.cost.response_time` (as a float)
    under :meth:`FaultScenario.healthy`.  Buckets on failed disks do not
    contribute — for a lost query this is the cost of the partial answer.
    """
    counts = degraded_buckets_per_disk(allocation, query, scenario)
    if not counts.size:
        return 0.0
    return float((counts * scenario.factors).max())


def batch_degraded_response_times(
    counts: np.ndarray, scenario: FaultScenario
) -> np.ndarray:
    """Degraded completion times for a whole query batch, ``shape (N,)``.

    ``counts`` is the ``(N, M)`` per-query per-disk bucket matrix from
    :meth:`repro.core.engine.ResponseTimeEngine.batch_disk_counts`; the
    same matrix serves every scenario, which is what makes the
    degraded-mode sweeps cheap.  Entry ``i`` equals
    :func:`degraded_response_time` for query ``i`` exactly: failed
    columns are zeroed and the straggler-weighted row maximum taken with
    the same int64*float64 arithmetic as the scalar path.
    """
    _check_scenario(counts.shape[1], scenario)
    if scenario.failed:
        counts = counts.copy()
        counts[:, sorted(scenario.failed)] = 0
    if not counts.size:
        return np.zeros(counts.shape[0], dtype=np.float64)
    return (counts * scenario.factors).max(axis=1)


def batch_query_availability(
    counts: np.ndarray, scenario: FaultScenario
) -> np.ndarray:
    """Boolean availability per query of a batch, ``shape (N,)``.

    ``counts`` as in :func:`batch_degraded_response_times`; entry ``i``
    equals :func:`query_is_available` for query ``i`` (no touched bucket
    lives on a failed disk).
    """
    _check_scenario(counts.shape[1], scenario)
    if not scenario.failed:
        return np.ones(counts.shape[0], dtype=bool)
    return ~(counts[:, sorted(scenario.failed)] > 0).any(axis=1)


def query_is_available(
    allocation: DiskAllocation,
    query: RangeQuery,
    scenario: FaultScenario,
) -> bool:
    """Whether the query touches no failed disk (full answer possible)."""
    _check_scenario(allocation.num_disks, scenario)
    if not scenario.failed:
        return True
    counts = buckets_per_disk(allocation, query)
    return not any(counts[disk] > 0 for disk in scenario.failed)


def availability(
    allocation: DiskAllocation,
    queries: Union[Iterable[RangeQuery], QueryBatch],
    scenario: FaultScenario,
) -> float:
    """Fraction of ``queries`` answerable in full under ``scenario``.

    1.0 for an empty workload by convention (nothing was lost).  One
    :func:`~repro.core.cost.batch_disk_counts` call and
    :func:`batch_query_availability`; :func:`query_is_available` is the
    per-query oracle.  ``queries`` is a query iterable or a
    :class:`~repro.core.query.QueryBatch`; it passes
    :meth:`~repro.core.query.QueryBatch.of` once.
    """
    batch = QueryBatch.of(queries, allocation.grid)
    with trace(
        "faults.availability",
        num_queries=len(batch),
        num_disks=allocation.num_disks,
    ):
        if not len(batch):
            return 1.0
        _check_scenario(allocation.num_disks, scenario)
        if not scenario.failed:
            return 1.0
        counts = batch_disk_counts(allocation, batch)
        answered = int(batch_query_availability(counts, scenario).sum())
        return answered / len(batch)


def replicated_query_is_available(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    scenario: FaultScenario,
) -> bool:
    """Whether every touched bucket keeps at least one surviving copy.

    Because the two copies are disjoint per bucket, any *single* fail-stop
    leaves the other copy alive — availability under one failure is 1.0 by
    construction, which the fault property tests measure rather than
    assume.
    """
    _check_scenario(replicated.num_disks, scenario)
    if not scenario.failed:
        return True
    if query.ndim != replicated.grid.ndim:
        raise FaultError(
            f"{query.ndim}-d query does not match "
            f"{replicated.grid.ndim}-d allocation"
        )
    clipped = query.clip_to(replicated.grid)
    if clipped is None:
        return True
    failed = np.fromiter(
        sorted(scenario.failed), dtype=np.int64, count=len(scenario.failed)
    )
    primary = replicated.primary.table[clipped.slices()]
    backup = replicated.backup.table[clipped.slices()]
    both_failed = np.isin(primary, failed) & np.isin(backup, failed)
    return not bool(both_failed.any())


def replicated_availability(
    replicated: ReplicatedAllocation,
    queries: Union[Iterable[RangeQuery], QueryBatch],
    scenario: FaultScenario,
) -> float:
    """Fraction of ``queries`` with every bucket reachable under faults.

    One batched plan (:func:`repro.replication.planner.plan_batch`): a
    query is available when it loses no bucket.
    :func:`replicated_query_is_available` is the per-query oracle.
    ``queries`` is a query iterable or a
    :class:`~repro.core.query.QueryBatch`; it passes
    :meth:`~repro.core.query.QueryBatch.of` once, and a workload that
    does not fit the allocation's grid raises :class:`FaultError`.
    """
    from repro.replication.planner import plan_batch

    _check_scenario(replicated.num_disks, scenario)
    try:
        batch = QueryBatch.of(queries, replicated.grid)
    except QueryError as exc:
        raise FaultError(str(exc)) from exc
    with trace(
        "faults.replicated_availability",
        num_queries=len(batch),
        num_disks=replicated.num_disks,
    ):
        if not len(batch):
            return 1.0
        lost = plan_batch(replicated, batch, scenarios=[scenario])[1][0]
        return int((lost == 0).sum()) / len(batch)


def degraded_optimal_response_time(
    num_buckets: int, scenario: FaultScenario
) -> float:
    """The unbeatable completion time on the surviving, possibly slow array.

    With ``S`` surviving disks all healthy this is the familiar
    ``ceil(n / S)``.  With stragglers it is the smallest ``T`` such that
    the surviving disks can absorb ``n`` buckets when disk ``d`` finishes
    the largest ``L`` with ``L * factor_d <= T`` of them by time ``T``
    (:meth:`FaultScenario.capacity`) — a lower bound on any planner,
    replicated or not (it ignores placement constraints entirely), and
    always reachable by some placement-free assignment.
    """
    surviving = scenario.surviving()
    if num_buckets < 0:
        raise FaultError(
            f"bucket count must be non-negative: {num_buckets}"
        )
    if num_buckets == 0:
        return 0.0
    if not surviving:
        raise FaultError(
            "no surviving disks: the degraded optimum is undefined"
        )
    factors = [scenario.factor(d) for d in surviving]
    if all(f <= 1.0 for f in factors):
        return float(optimal_response_time(num_buckets, len(surviving)))
    # Candidate completion times are load * factor products; the optimum
    # is the smallest candidate whose induced capacities cover n buckets.
    candidates = np.unique(
        np.outer(np.arange(1, num_buckets + 1, dtype=np.int64), factors)
    )
    covered = scenario.capacities(candidates)[:, list(surviving)].sum(
        axis=1
    ) >= num_buckets
    return float(candidates[int(np.argmax(covered))])
