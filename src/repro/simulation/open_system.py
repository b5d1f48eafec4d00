"""Open-system I/O simulation: queries arriving over time.

The closed-loop simulator (:mod:`repro.simulation.parallel_io`) submits
all queries at once; real systems see arrivals spread over time, and the
interesting regime is the transition from a lightly loaded system (query
latency = the paper's response time, in ms) to saturation (latency is
queueing-dominated).  This module provides an event-free but exact FIFO
model of that:

* queries carry arrival times; each disk serves its segments in arrival
  order, starting a segment no earlier than its query's arrival;
* a query completes when all its per-disk segments do.

The model runs on arrays.  One engine gather gives the ``(N, M)`` bucket
counts and one :meth:`~repro.simulation.disk.DiskModel.service_times_ms`
call every service time; the per-disk recurrence
``free = max(free, a_n) + s_n`` then steps down the query axis over all
rates and disks at once.  :func:`saturation_sweep` shares the counts
across its rates and opens one ``simulation.sweep`` span;
:meth:`OpenSystemSimulator.run` is the same pass with one rate and opens
one ``simulation.run`` span.

The declustering insight it exposes: at *light* load the best scheme is
the one with the lowest response time (the paper's metric — HCAM/cyclic
win small queries), while near *saturation* per-query latency is queue-
depth-bound and spreading each query across more disks stops helping —
the multi-user effect of Ghandeharizadeh & DeWitt.  The crossover is
measured by experiment X5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Union

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.cost import batch_disk_counts
from repro.core.exceptions import SimulationError
from repro.core.query import QueryBatch, RangeQuery
from repro.obs.trace import trace
from repro.simulation.disk import DiskModel

__all__ = [
    "OpenSystemReport",
    "OpenSystemSimulator",
    "poisson_arrivals",
    "saturation_sweep",
]


def poisson_arrivals(
    count: int, rate_per_second: float, seed=0
) -> np.ndarray:
    """Arrival times (ms) of a Poisson stream, deterministic given seed."""
    if count <= 0:
        raise SimulationError(f"query count must be positive: {count}")
    if rate_per_second <= 0:
        raise SimulationError(
            f"arrival rate must be positive: {rate_per_second}"
        )
    rng = np.random.default_rng(seed)
    gaps_ms = rng.exponential(1000.0 / rate_per_second, size=count)
    return np.cumsum(gaps_ms)


@dataclass
class OpenSystemReport:
    """Per-query latencies and system-level figures of one run."""

    latencies_ms: List[float] = field(default_factory=list)
    makespan_ms: float = 0.0
    disk_busy_ms: List[float] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        """Average arrival-to-completion latency."""
        if not self.latencies_ms:
            raise SimulationError("no queries were simulated")
        return float(np.mean(self.latencies_ms))

    @property
    def p95_latency_ms(self) -> float:
        """95th-percentile latency."""
        if not self.latencies_ms:
            raise SimulationError("no queries were simulated")
        return float(np.percentile(self.latencies_ms, 95))

    @property
    def max_utilization(self) -> float:
        """Busy fraction of the most-loaded disk."""
        if self.makespan_ms <= 0:
            return 0.0
        return max(self.disk_busy_ms) / self.makespan_ms


class OpenSystemSimulator:
    """FIFO per-disk queues fed by timestamped query arrivals."""

    def __init__(
        self,
        allocation: DiskAllocation,
        disk: DiskModel = DiskModel(),
        sequential: bool = False,
    ):
        self._allocation = allocation
        self._disk = disk
        self._sequential = sequential

    def run(
        self,
        queries: Union[Iterable[RangeQuery], QueryBatch],
        arrivals_ms: Sequence[float],
    ) -> OpenSystemReport:
        """Simulate the arrival stream; queries must be arrival-ordered.

        ``queries`` is a query iterable or a
        :class:`~repro.core.query.QueryBatch`; it passes
        :meth:`~repro.core.query.QueryBatch.of` once.
        """
        batch = QueryBatch.of(queries, self._allocation.grid)
        arrivals = np.asarray(arrivals_ms, dtype=np.float64)
        if not len(batch):
            raise SimulationError("query stream is empty")
        if arrivals.shape != (len(batch),):
            raise SimulationError(
                f"{len(batch)} queries but "
                f"{arrivals.shape[0] if arrivals.ndim == 1 else '?'} "
                "arrival times"
            )
        if np.any(np.diff(arrivals) < 0):
            raise SimulationError(
                "arrival times must be non-decreasing"
            )
        with trace(
            "simulation.run",
            num_queries=len(batch),
            num_disks=self._allocation.num_disks,
        ):
            counts = batch_disk_counts(self._allocation, batch)
            services = self._disk.service_times_ms(counts, self._sequential)
            return _fifo_reports(services, arrivals[np.newaxis, :])[0]


def _fifo_reports(
    services: np.ndarray, arrivals: np.ndarray
) -> List[OpenSystemReport]:
    """One report per row of ``arrivals`` over the same service times.

    ``services`` is ``(N, M)`` (0.0 where a query does not touch a disk)
    and ``arrivals`` is ``(R, N)``, one non-decreasing stream per rate.
    Each disk runs the FIFO recurrence ``free = max(free, a_n) + s_n``
    over the queries that touch it, in query order, for every rate at
    once; untouched disks keep their ``free`` and do not bound the
    query's finish.  The recurrence stays sequential on purpose: its
    closed form (``C_n + max_j (a_j - C_{j-1})``) reassociates the sums
    and moves low-order bits.
    """
    num_rates, num_queries = arrivals.shape
    touched = services > 0.0
    free = np.zeros((num_rates, services.shape[1]), dtype=np.float64)
    finish = np.empty((num_rates, num_queries), dtype=np.float64)
    for n in range(num_queries):
        mask = touched[n]
        arrival = arrivals[:, n, np.newaxis]
        done = np.maximum(free, arrival) + services[n]
        np.copyto(free, done, where=mask)
        finish[:, n] = done.max(axis=1, where=mask, initial=-np.inf)
    latencies = np.maximum(finish, arrivals) - arrivals
    # Sequential column sums: the per-disk busy time adds the services
    # in query order, exactly as each disk accumulates them.
    busy = np.cumsum(services, axis=0)[-1].tolist()
    makespans = free.max(axis=1)
    return [
        OpenSystemReport(
            latencies_ms=latencies[r].tolist(),
            makespan_ms=float(makespans[r]),
            disk_busy_ms=list(busy),
        )
        for r in range(num_rates)
    ]


def saturation_sweep(
    allocation: DiskAllocation,
    queries: Union[Iterable[RangeQuery], QueryBatch],
    rates_per_second: Sequence[float],
    disk: DiskModel = DiskModel(),
    seed=0,
) -> List[OpenSystemReport]:
    """Run the same workload at several Poisson arrival rates.

    One report per rate; the arrival process is re-drawn per rate with
    the same seed so the only varying factor is the load level.  The
    counts and service times are computed once and every rate runs
    through the same FIFO pass.  ``queries`` is a query iterable or a
    :class:`~repro.core.query.QueryBatch`; it passes
    :meth:`~repro.core.query.QueryBatch.of` once.
    """
    batch = QueryBatch.of(queries, allocation.grid)
    if not len(batch):
        raise SimulationError("query stream is empty")
    rates = list(rates_per_second)
    with trace(
        "simulation.sweep",
        num_queries=len(batch),
        num_rates=len(rates),
        num_disks=allocation.num_disks,
    ):
        if not rates:
            return []
        counts = batch_disk_counts(allocation, batch)
        services = disk.service_times_ms(counts)
        arrivals = np.stack(
            [poisson_arrivals(len(batch), rate, seed=seed) for rate in rates]
        )
        return _fifo_reports(services, arrivals)
