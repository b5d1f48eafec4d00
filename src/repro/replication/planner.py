"""Replica-choice query planning: which copy of each bucket to read.

With two copies per bucket, answering a query becomes an assignment
problem: pick one disk from each bucket's pair so the busiest disk reads
as few buckets as possible.  Three ways to plan:

* :func:`plan_query` with ``method="flow"`` — **exact**, and sized by the
  array rather than the query.  A bucket only ever chooses between its
  (primary, backup) disks, and buckets sharing that pair are
  interchangeable, so the query collapses into at most ``M * (M - 1)``
  *pair classes* counted in one numpy pass (``bincount`` of
  ``primary * M + backup`` over the clipped window).  Feasibility of a
  target time ``T`` is then a capacitated orientation of those classes:
  start with every bucket on its primary and run a small integer
  augmenting-path max-flow on the ``M``-disk graph, where an arc
  ``u -> v`` carries the buckets on ``u`` whose other copy is on ``v``,
  from over-capacity disks to disks with room.  A binary search over the
  achievable ``T`` — from the ``ceil(n / S)`` information bound over the
  ``S <= M`` disks the query can use, up to the all-primary plan's time
  — finds the optimum, each step warm-started from the last feasible
  orientation.
* :func:`plan_batch` — the same exact optimum for a **whole batch** of
  queries and scenarios, without building any assignment.  The pair
  classes are the ``M * M`` "disks" of an ordinary allocation, so one
  engine corner gather counts every query's classes.  The optimum then
  comes from Hall's condition (Hakimi's orientation theorem with forced
  and lost buckets): target ``T`` is feasible iff every disk subset
  ``S`` has ``e(S) <= sum_{d in S} capacity(d, T)``, where ``e(S)``
  counts the buckets whose surviving copies all lie in ``S``.  ``e`` for
  all ``2^M`` subsets is one matmul of the class counts against a 0/1
  class-in-subset matrix, and one binary search over the ``load *
  factor`` candidates serves every query at once.  The smallest feasible
  candidate is the optimal plan's own ``load * factor`` product, so the
  result equals :func:`plan_query`'s completion time bit for bit.  It
  applies to ``method="flow"`` on at most :data:`HALL_MAX_DISKS` disks
  when the class table fits the SAT byte budget; otherwise the batch is
  planned query by query.
* ``method="greedy"`` — assign buckets in row-major order to the
  currently less-loaded of their two disks.  Near-optimal in practice and
  what a real executor would run.

The exact planner's class flows expand to :attr:`QueryPlan.assignment`
deterministically: within each (primary, backup) class the first ``x``
buckets in row-major order read the primary and the rest the backup.

All three also run in **degraded mode**: pass a
:class:`~repro.faults.models.FaultScenario` and the planner only considers
surviving replicas (a bucket with both copies on failed disks is recorded
as *lost*), while straggler factors turn the objective into the weighted
completion time ``max_d load_d * factor_d``.  The exact path maps each
class to its surviving choices (both disks, one forced disk, or lost) and
binary-searches the discrete set of ``load * factor`` products.  A
candidate ``T`` becomes per-disk capacities through
:meth:`~repro.faults.models.FaultScenario.capacities` — the largest ``L``
with ``L * factor_d <= T`` on the same float products — so capacities
are exact: no epsilon can admit a load that finishes after ``T`` or
refuse one that finishes exactly at it.  The solver is plain Python and
numpy; the planner has no graph-library dependency.

The headline facts the tests pin down: with a sensible replica layout the
*planned* response time of the small queries that plague DM collapses to
(or near) the ``ceil(|Q|/M)`` optimum, and under any single fail-stop
every bucket stays reachable with a planned completion time at most twice
the healthy planned optimum (move the failed disk's assignments to their
surviving copies).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import QueryError
from repro.core.query import QueryBatch, RangeQuery
from repro.faults.models import FaultScenario
from repro.obs.trace import trace
from repro.replication.allocation import ReplicatedAllocation

__all__ = [
    "Coords",
    "HALL_MAX_DISKS",
    "QueryPlan",
    "degraded_replicated_response_time",
    "plan_batch",
    "plan_query",
    "replicated_response_time",
    "replication_speedup",
]

Coords = Tuple[int, ...]

#: Largest disk count whose ``2^M`` disk subsets :func:`plan_batch`
#: enumerates; larger arrays plan query by query.
HALL_MAX_DISKS = 12

#: Most entries of one ``(queries, 2^M)`` block on the Hall path (32 MiB
#: of float64), so the subset matrices stay small at any batch size.
_HALL_BLOCK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class QueryPlan:
    """A replica choice for every reachable bucket of one query.

    ``lost`` lists buckets whose every copy sits on a failed disk (always
    empty for healthy plans and under any single fail-stop); ``factors``
    carries the scenario's per-disk service-time multipliers when the plan
    was made in degraded mode.
    """

    query: RangeQuery
    assignment: Dict[Coords, int]
    loads: np.ndarray
    factors: Optional[np.ndarray] = None
    lost: Tuple[Coords, ...] = field(default=())

    @property
    def response_time(self) -> int:
        """Busiest disk's bucket count under this plan (unweighted)."""
        return int(self.loads.max()) if self.loads.size else 0

    @property
    def completion_time(self) -> float:
        """Weighted finish time ``max_d load_d * factor_d``.

        Equal to :attr:`response_time` when no straggler factors apply.
        """
        if not self.loads.size:
            return 0.0
        if self.factors is None:
            return float(self.response_time)
        return float((self.loads * self.factors).max())

    @property
    def num_buckets(self) -> int:
        """Buckets read by the plan."""
        return len(self.assignment)

    @property
    def num_lost(self) -> int:
        """Buckets with no surviving copy."""
        return len(self.lost)

    @property
    def is_complete(self) -> bool:
        """Whether every bucket of the query could be assigned a disk."""
        return not self.lost


def _plan_greedy(
    replicated: ReplicatedAllocation,
    buckets: List[Coords],
    scenario: FaultScenario,
) -> Tuple[Dict[Coords, int], Tuple[Coords, ...]]:
    """Greedy on weighted finish times, routing around failed disks.

    Each bucket goes to the surviving copy that would finish first,
    ``(load + 1) * factor``; ties prefer the primary copy, so on healthy
    disks the rule is "primary unless the backup is strictly less
    loaded".  Buckets with no surviving copy are returned as lost.
    """
    failed = scenario.failed
    factors = scenario.factors.tolist()
    loads = [0] * replicated.num_disks
    assignment: Dict[Coords, int] = {}
    lost: List[Coords] = []
    for coords in buckets:
        best, best_cost = None, None
        for disk in replicated.disks_of(coords):
            if disk in failed:
                continue
            cost = (loads[disk] + 1) * factors[disk]
            if best is None or cost < best_cost:
                best, best_cost = disk, cost
        if best is None:
            lost.append(coords)
        else:
            assignment[coords] = best
            loads[best] += 1
    return assignment, tuple(lost)


def _rebalance(
    movable: List[List[int]], loads: List[int], capacities: List[int]
) -> bool:
    """Move buckets between their copies until every load fits, in place.

    Integer augmenting-path max-flow (shortest paths first) on the disk
    graph: ``movable[u][v]`` buckets sit on ``u`` with their other copy on
    ``v``; sources are disks over capacity, sinks disks with room.  Moving
    ``delta`` buckets along ``u -> v`` turns them into ``v -> u`` arcs,
    which is the residual edge.  Returns whether every excess was routed;
    on ``False`` the arguments are left partially rebalanced.
    """
    num_disks = len(loads)
    excess = [max(load - cap, 0) for load, cap in zip(loads, capacities)]
    room = [max(cap - load, 0) for load, cap in zip(loads, capacities)]
    if sum(excess) > sum(room):
        return False
    while True:
        sources = [disk for disk in range(num_disks) if excess[disk]]
        if not sources:
            return True
        parent = [-1] * num_disks
        for disk in sources:
            parent[disk] = disk
        queue = deque(sources)
        sink = -1
        while queue and sink < 0:
            u = queue.popleft()
            row = movable[u]
            for v in range(num_disks):
                if row[v] and parent[v] < 0:
                    parent[v] = u
                    if room[v]:
                        sink = v
                        break
                    queue.append(v)
        if sink < 0:
            return False
        delta = room[sink]
        v = sink
        while parent[v] != v:
            u = parent[v]
            delta = min(delta, movable[u][v])
            v = u
        source = v
        delta = min(delta, excess[source])
        v = sink
        while parent[v] != v:
            u = parent[v]
            movable[u][v] -= delta
            movable[v][u] += delta
            v = u
        excess[source] -= delta
        room[sink] -= delta
        loads[source] -= delta
        loads[sink] += delta


def _plan_exact(
    replicated: ReplicatedAllocation,
    clipped: RangeQuery,
    scenario: FaultScenario,
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal per-bucket disks and the lost mask, both row-major.

    The optimum over pair classes: see the module docstring.  Lost
    buckets' entries in the returned disk array are meaningless.
    """
    num_disks = replicated.num_disks
    window = clipped.slices()
    primary = replicated.primary.table[window].ravel().astype(np.int64)
    backup = replicated.backup.table[window].ravel().astype(np.int64)
    key = primary * num_disks + backup
    counts = np.bincount(key, minlength=num_disks * num_disks)
    failed = np.zeros(num_disks, dtype=bool)
    failed[sorted(scenario.failed)] = True
    lost = failed[primary] & failed[backup]

    # All-primary (or sole survivor) start: a feasible plan to improve.
    class_counts = counts.tolist()
    dead = failed.tolist()
    movable = [[0] * num_disks for _ in range(num_disks)]
    loads = [0] * num_disks
    usable = set()
    classes = np.flatnonzero(counts).tolist()
    for cls in classes:
        p, b = divmod(cls, num_disks)
        if dead[p] and dead[b]:
            continue
        size = class_counts[cls]
        if dead[p]:
            loads[b] += size
            usable.add(b)
            continue
        loads[p] += size
        usable.add(p)
        if not dead[b]:
            movable[p][b] += size
            usable.add(b)
    served = sum(loads)
    if not served:
        return primary, lost

    factors = scenario.factors.tolist()
    upper = max(loads[d] * factors[d] for d in usable)
    lower = -(-served // len(usable))  # factors >= 1: T >= max load
    distinct = sorted({factors[d] for d in usable})
    candidates = np.unique(
        np.outer(np.arange(1, served + 1, dtype=np.int64), distinct)
    )
    low = int(np.searchsorted(candidates, lower, side="left"))
    high = int(np.searchsorted(candidates, upper, side="right")) - 1
    while low < high:
        middle = (low + high) // 2
        time = float(candidates[middle])
        trial = [row[:] for row in movable]
        trial_loads = loads[:]
        capacities = scenario.capacities([time])[0].tolist()
        if _rebalance(trial, trial_loads, capacities):
            movable, loads = trial, trial_loads
            high = middle
        else:
            low = middle + 1

    # movable[p][b] counts the buckets of both classes (p, b) and (b, p)
    # that sit on p.  Hand them back per class — the class whose primary
    # is the smaller disk keeps its primaries first — then send the
    # first x buckets of each class (row-major) to its primary.
    to_primary = np.zeros(num_disks * num_disks, dtype=np.int64)
    for cls in classes:
        p, b = divmod(cls, num_disks)
        if dead[p]:
            continue
        size = class_counts[cls]
        if dead[b]:
            to_primary[cls] = size
        elif p < b:
            to_primary[cls] = min(size, movable[p][b])
        else:
            other = class_counts[b * num_disks + p]
            to_primary[cls] = (
                movable[p][b] - other + min(other, movable[b][p])
            )
    order = np.argsort(key, kind="stable")
    starts = np.cumsum(counts) - counts
    rank = np.empty_like(key)
    rank[order] = np.arange(key.size) - starts[key[order]]
    disks = np.where(rank < to_primary[key], primary, backup)
    return disks, lost


def plan_query(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    method: str = "flow",
    scenario: Optional[FaultScenario] = None,
) -> QueryPlan:
    """Choose a replica per bucket minimizing the busiest disk.

    ``method="flow"`` is exact; ``method="greedy"`` is the fast heuristic.
    With a ``scenario`` the planner routes around failed disks (recording
    unreachable buckets in :attr:`QueryPlan.lost`) and minimizes the
    weighted completion time under straggler factors.
    """
    _validate(replicated, method, [scenario])
    num_disks = replicated.num_disks
    grid = replicated.grid
    if query.ndim != grid.ndim:
        raise QueryError(
            f"{query.ndim}-d query does not match {grid.ndim}-d grid"
        )
    degraded = scenario is not None and not scenario.is_healthy
    factors = scenario.factors if degraded else None
    clipped = query.clip_to(grid)
    if clipped is None:
        return QueryPlan(
            query=query,
            assignment={},
            loads=np.zeros(num_disks, dtype=np.int64),
            factors=factors,
        )

    buckets = list(clipped.iter_buckets())
    effective = scenario if degraded else FaultScenario.healthy(num_disks)
    if method == "greedy":
        assignment, lost = _plan_greedy(replicated, buckets, effective)
        chosen = np.fromiter(
            assignment.values(), dtype=np.int64, count=len(assignment)
        )
    else:
        chosen, lost_mask = _plan_exact(replicated, clipped, effective)
        lost = ()
        if lost_mask.any():
            lost = tuple(compress(buckets, lost_mask.tolist()))
            buckets = list(compress(buckets, (~lost_mask).tolist()))
            chosen = chosen[~lost_mask]
        assignment = dict(zip(buckets, chosen.tolist()))
    return QueryPlan(
        query=query,
        assignment=assignment,
        loads=np.bincount(chosen, minlength=num_disks).astype(
            np.int64, copy=False
        ),
        factors=factors,
        lost=lost,
    )


def _validate(
    replicated: ReplicatedAllocation,
    method: str,
    scenarios: Sequence[Optional[FaultScenario]],
) -> None:
    if method not in ("flow", "greedy"):
        raise QueryError(
            f"unknown planning method {method!r}; use 'flow' or 'greedy'"
        )
    for scenario in scenarios:
        if scenario is not None and (
            scenario.num_disks != replicated.num_disks
        ):
            raise QueryError(
                f"scenario covers {scenario.num_disks} disks but the "
                f"allocation uses {replicated.num_disks}"
            )


def _hall_applies(replicated: ReplicatedAllocation, method: str) -> bool:
    """Whether :func:`plan_batch` can take the Hall path.

    Exact planning only, at most :data:`HALL_MAX_DISKS` disks, and a
    pair-class SAT (``M * M`` channels) inside the SAT byte budget.
    """
    from repro.core.sat import sat_byte_budget, sat_dtype

    num_disks = replicated.num_disks
    if method != "flow" or num_disks > HALL_MAX_DISKS:
        return False
    grid = replicated.grid
    cells = int(np.prod([d + 1 for d in grid.dims], dtype=np.int64))
    itemsize = sat_dtype(grid.num_buckets).itemsize
    return cells * num_disks * num_disks * itemsize <= sat_byte_budget()


def _pair_class_counts(
    replicated: ReplicatedAllocation, batch: QueryBatch
) -> np.ndarray:
    """Buckets per ``(primary, backup)`` class of every query, ``(N, M*M)``.

    The classes ``primary * M + backup`` are the "disks" of an ordinary
    allocation, so the engine's SAT build and corner gather count them.
    """
    from repro.core.engine import ResponseTimeEngine

    num_disks = replicated.num_disks
    classes = DiskAllocation(
        replicated.grid,
        num_disks * num_disks,
        replicated.primary.table.astype(np.int64) * num_disks
        + replicated.backup.table,
    )
    return ResponseTimeEngine(classes).batch_disk_counts(batch)


def _hall_plan(
    counts: np.ndarray, scenario: FaultScenario
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal completion times and lost counts from class counts.

    Hall's condition: target ``T`` is feasible iff every disk subset
    ``S`` has ``e(S) <= sum_{d in S} capacity(d, T)``, where ``e(S)``
    counts the buckets whose surviving copies all lie in ``S``.  ``e`` is
    one matmul against the class-in-subset matrix; the smallest feasible
    ``load * factor`` candidate is binary-searched for all queries at
    once.
    """
    num_disks = scenario.num_disks
    alive = np.ones(num_disks, dtype=bool)
    alive[sorted(scenario.failed)] = False
    bits = np.where(alive, 1 << np.arange(num_disks), 0)
    # Surviving copies of class p * M + b as a disk bit set (0: lost).
    survivors = (bits[:, None] | bits[None, :]).ravel()[:, None]
    subsets = np.arange(1 << num_disks)
    inside = ((subsets & survivors) == survivors) & (survivors != 0)
    inside = inside.astype(np.float64)
    member = (subsets >> np.arange(num_disks)[:, None]) & 1
    member = member.astype(np.float64)

    lost = counts[:, survivors[:, 0] == 0].sum(axis=1)
    served = counts.sum(axis=1) - lost
    times = np.zeros(counts.shape[0], dtype=np.float64)
    top = int(served.max())
    if top == 0:
        return times, lost
    candidates = np.unique(
        np.outer(
            np.arange(1, top + 1, dtype=np.int64),
            np.unique(scenario.factors[alive]),
        )
    )
    block = max(1, _HALL_BLOCK_ENTRIES >> num_disks)
    for start in range(0, counts.shape[0], block):
        rows = slice(start, start + block)
        demand = counts[rows].astype(np.float64) @ inside
        low = np.zeros(demand.shape[0], dtype=np.int64)
        high = np.where(served[rows] > 0, candidates.size - 1, 0)
        while True:
            pending = np.flatnonzero(low < high)
            if not pending.size:
                break
            middle = (low[pending] + high[pending]) // 2
            supply = scenario.capacities(candidates[middle]) @ member
            fits = (demand[pending] <= supply).all(axis=1)
            high[pending[fits]] = middle[fits]
            low[pending[~fits]] = middle[~fits] + 1
        times[rows] = np.where(served[rows] > 0, candidates[low], 0.0)
    return times, lost


def plan_batch(
    replicated: ReplicatedAllocation,
    queries: Union[Iterable[RangeQuery], QueryBatch],
    method: str = "flow",
    scenarios: Sequence[Optional[FaultScenario]] = (None,),
) -> Tuple[np.ndarray, np.ndarray]:
    """Planned completion time and lost buckets of a batch, per scenario.

    Returns ``(times, lost)``, both shaped ``(len(scenarios),
    len(queries))``: entry ``[k, i]`` equals
    ``plan_query(replicated, queries[i], method, scenarios[k])``'s
    :attr:`~QueryPlan.completion_time` (float64, bit for bit) and
    :attr:`~QueryPlan.num_lost`.  ``None`` is the healthy scenario.
    ``queries`` is a query iterable or a
    :class:`~repro.core.query.QueryBatch` on the allocation's grid; it
    passes :meth:`~repro.core.query.QueryBatch.of` once.

    Exact planning on at most :data:`HALL_MAX_DISKS` disks counts the
    pair classes once for the whole batch and reads every scenario's
    optimum off Hall's condition (``_hall_plan``); anything else plans
    row by row, each row's clipped box as the query (a row clipped to
    nothing plans to time 0 with nothing lost).  No bucket assignment
    is built either way.
    """
    _validate(replicated, method, scenarios)
    num_disks = replicated.num_disks
    batch = QueryBatch.of(queries, replicated.grid)
    shape = (len(scenarios), len(batch))
    times = np.zeros(shape, dtype=np.float64)
    lost = np.zeros(shape, dtype=np.int64)
    hall = _hall_applies(replicated, method)
    with trace(
        "planner.batch",
        num_queries=len(batch),
        num_disks=num_disks,
        path="hall" if hall else "per_query",
    ):
        if not len(batch):
            return times, lost
        if hall:
            counts = _pair_class_counts(replicated, batch)
            for k, scenario in enumerate(scenarios):
                times[k], lost[k] = _hall_plan(
                    counts, scenario or FaultScenario.healthy(num_disks)
                )
            return times, lost
        nonempty = np.flatnonzero((batch.hi > batch.lo).all(axis=1))
        rows = list(
            zip(nonempty.tolist(), batch.take(nonempty).iter_queries())
        )
        for k, scenario in enumerate(scenarios):
            for i, query in rows:
                plan = plan_query(replicated, query, method, scenario)
                times[k, i] = plan.completion_time
                lost[k, i] = plan.num_lost
        return times, lost


def replicated_response_time(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    method: str = "flow",
) -> int:
    """Response time of a query under optimal (or greedy) replica choice."""
    return plan_query(replicated, query, method=method).response_time


def degraded_replicated_response_time(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    scenario: FaultScenario,
    method: str = "flow",
) -> float:
    """Planned completion time under faults (weighted busiest disk).

    Lost buckets (no surviving copy) do not contribute; check
    :attr:`QueryPlan.is_complete` or the availability helpers in
    :mod:`repro.faults.degraded` to detect them.
    """
    return plan_query(
        replicated, query, method=method, scenario=scenario
    ).completion_time


def replication_speedup(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    method: str = "flow",
) -> float:
    """Primary-only RT divided by planned replicated RT (>= 1)."""
    from repro.core.cost import response_time

    primary_rt = response_time(replicated.primary, query)
    planned_rt = replicated_response_time(
        replicated, query, method=method
    )
    if planned_rt == 0:
        return 1.0
    return primary_rt / planned_rt
