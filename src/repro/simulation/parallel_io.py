"""Parallel I/O execution model over an array of independent disks.

Converts the combinatorial cost model into simulated milliseconds:

* :func:`query_time_ms` — one query, all disks start together, the query
  completes when the slowest disk finishes (the paper's response-time
  notion, in time units instead of bucket counts).
* :class:`ParallelIOSimulator` — a closed-loop stream of queries against
  per-disk FIFO queues, reporting per-query latency and per-disk busy time
  and utilization.  This exposes what bucket counting hides: with a stream
  of queries, imbalance also costs *throughput*, because a hot disk delays
  every later query that needs it.  Every query is submitted at t=0, so
  the queues are one ``cumsum`` of the batch's service-time array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.cost import batch_disk_counts, buckets_per_disk
from repro.core.exceptions import SimulationError
from repro.core.query import RangeQuery
from repro.simulation.disk import DiskModel

__all__ = [
    "ParallelIOSimulator",
    "StreamReport",
    "query_time_ms",
]


def query_time_ms(
    allocation: DiskAllocation,
    query: RangeQuery,
    disk: DiskModel = DiskModel(),
    sequential: bool = False,
) -> float:
    """Simulated wall-clock time of one query (max disk service time)."""
    counts = buckets_per_disk(allocation, query)
    return float(disk.service_times_ms(counts, sequential).max())


@dataclass
class StreamReport:
    """Results of simulating a query stream.

    Attributes
    ----------
    latencies_ms:
        Per-query completion latency (finish time minus submit time), in
        submission order.
    makespan_ms:
        Completion time of the whole stream.
    disk_busy_ms:
        Total service time charged to each disk.
    """

    latencies_ms: List[float] = field(default_factory=list)
    makespan_ms: float = 0.0
    disk_busy_ms: List[float] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        """Average per-query latency."""
        if not self.latencies_ms:
            raise SimulationError("no queries were simulated")
        return float(np.mean(self.latencies_ms))

    @property
    def max_latency_ms(self) -> float:
        """Worst per-query latency."""
        if not self.latencies_ms:
            raise SimulationError("no queries were simulated")
        return float(np.max(self.latencies_ms))

    @property
    def utilization(self) -> List[float]:
        """Per-disk busy fraction of the makespan."""
        if self.makespan_ms <= 0:
            return [0.0] * len(self.disk_busy_ms)
        return [busy / self.makespan_ms for busy in self.disk_busy_ms]


class ParallelIOSimulator:
    """FIFO per-disk queues fed by a sequential query stream.

    Queries are submitted back to back (closed loop, think a batch report
    run): query ``i``'s work for each disk is appended to that disk's queue;
    the query completes when the last of its per-disk segments finishes.
    Independent disks, no overlap of one query's segments on the same disk.
    """

    def __init__(
        self,
        allocation: DiskAllocation,
        disk: DiskModel = DiskModel(),
        sequential: bool = False,
    ):
        self._allocation = allocation
        self._disk = disk
        self._sequential = sequential

    def run(self, queries: Iterable[RangeQuery]) -> StreamReport:
        """Simulate the stream and return latency/utilization figures.

        Every query is submitted at t=0, so each disk's queue is the
        running sum of its service times in query order: one ``cumsum``
        down the query axis gives every disk's finish times, and a query
        finishes at the latest of them over the disks it touches.
        """
        queries = list(queries)
        if not queries:
            raise SimulationError("query stream is empty")
        counts = batch_disk_counts(self._allocation, queries)
        services = self._disk.service_times_ms(counts, self._sequential)
        free_at = np.cumsum(services, axis=0)
        finish = np.max(free_at, axis=1, where=counts > 0, initial=0.0)
        return StreamReport(
            latencies_ms=finish.tolist(),
            makespan_ms=float(free_at[-1].max()),
            disk_busy_ms=free_at[-1].tolist(),
        )
