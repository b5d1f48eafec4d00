"""Array simulators against scalar per-query reference loops.

The reference functions below run the FIFO model one query and one disk
at a time: one ``buckets_per_disk`` and one ``service_time_ms`` per
(query, disk).  Every figure must agree bit for bit, not approximately.
"""

import numpy as np
import pytest

from repro.core.cost import BATCH_THRESHOLD, buckets_per_disk
from repro.core.exceptions import QueryError, SimulationError
from repro.core.grid import Grid
from repro.core.query import RangeQuery
from repro.core.registry import get_scheme
from repro.simulation.disk import DiskModel
from repro.simulation.open_system import (
    OpenSystemSimulator,
    poisson_arrivals,
    saturation_sweep,
)
from repro.simulation.parallel_io import ParallelIOSimulator


def reference_open_run(allocation, queries, arrivals, disk, sequential):
    """The open-system loop: ``(latencies, makespan, busy)``."""
    num_disks = allocation.num_disks
    free_at = np.zeros(num_disks, dtype=np.float64)
    busy = np.zeros(num_disks, dtype=np.float64)
    latencies = []
    for query, arrival in zip(queries, arrivals):
        counts = buckets_per_disk(allocation, query)
        finish = float(arrival)
        for disk_id, count in enumerate(counts):
            if count == 0:
                continue
            service = disk.service_time_ms(int(count), sequential=sequential)
            start = max(free_at[disk_id], arrival)
            free_at[disk_id] = start + service
            busy[disk_id] += service
            finish = max(finish, free_at[disk_id])
        latencies.append(finish - float(arrival))
    return latencies, float(free_at.max()), busy.tolist()


def reference_closed_run(allocation, queries, disk, sequential):
    """The closed-loop loop: every query submitted at t=0."""
    return reference_open_run(
        allocation, queries, [0.0] * len(queries), disk, sequential
    )


def random_queries(grid, count, rng, reach=2):
    """Boxes that may overhang the grid or lie wholly outside it."""
    queries = []
    for _ in range(count):
        lower = [int(rng.integers(0, d + reach)) for d in grid.dims]
        upper = [lo + int(rng.integers(0, 4)) for lo in lower]
        queries.append(RangeQuery(tuple(lower), tuple(upper)))
    return queries


def outside_query(grid):
    """A query that touches no bucket (a zero-touch row)."""
    return RangeQuery(
        tuple(d + 1 for d in grid.dims), tuple(d + 3 for d in grid.dims)
    )


CUSTOM_DISK = DiskModel(
    avg_seek_ms=3.7, rotation_ms=6.1, transfer_mb_per_s=13.3, bucket_kb=3.0
)

CASES = [
    ("dm", (13,), 3),
    ("hcam", (9, 7), 4),
    ("fx", (8, 8), 4),
    ("dm", (5, 4, 6), 5),
    ("hcam", (4, 4, 4), 3),
]


def assert_same(report, reference):
    latencies, makespan, busy = reference
    assert report.latencies_ms == latencies
    assert report.makespan_ms == makespan
    assert report.disk_busy_ms == busy


def workload(grid, count, seed):
    rng = np.random.default_rng(seed)
    queries = random_queries(grid, count, rng)
    queries[count // 2] = outside_query(grid)
    return queries


@pytest.mark.parametrize("scheme,dims,num_disks", CASES)
@pytest.mark.parametrize("count", [1, 5, BATCH_THRESHOLD + 24])
@pytest.mark.parametrize("disk", [DiskModel(), CUSTOM_DISK])
@pytest.mark.parametrize("sequential", [False, True])
class TestAgainstReference:
    def test_open_run(self, scheme, dims, num_disks, count, disk,
                      sequential):
        allocation = get_scheme(scheme).allocate(Grid(dims), num_disks)
        queries = workload(allocation.grid, count, seed=count)
        arrivals = poisson_arrivals(count, 90.0, seed=7)
        simulator = OpenSystemSimulator(allocation, disk, sequential)
        assert_same(
            simulator.run(queries, arrivals),
            reference_open_run(
                allocation, queries, arrivals, disk, sequential
            ),
        )

    def test_equal_arrivals(self, scheme, dims, num_disks, count, disk,
                            sequential):
        allocation = get_scheme(scheme).allocate(Grid(dims), num_disks)
        queries = workload(allocation.grid, count, seed=count + 1)
        arrivals = np.repeat([0.0, 3.5, 3.5, 40.0], -(-count // 4))[:count]
        simulator = OpenSystemSimulator(allocation, disk, sequential)
        assert_same(
            simulator.run(queries, arrivals),
            reference_open_run(
                allocation, queries, arrivals, disk, sequential
            ),
        )

    def test_closed_run(self, scheme, dims, num_disks, count, disk,
                        sequential):
        allocation = get_scheme(scheme).allocate(Grid(dims), num_disks)
        queries = workload(allocation.grid, count, seed=count + 2)
        simulator = ParallelIOSimulator(allocation, disk, sequential)
        assert_same(
            simulator.run(iter(queries)),
            reference_closed_run(allocation, queries, disk, sequential),
        )


@pytest.mark.parametrize("scheme,dims,num_disks", CASES)
@pytest.mark.parametrize("disk", [DiskModel(), CUSTOM_DISK])
def test_sweep_rates_match_separate_runs(scheme, dims, num_disks, disk):
    allocation = get_scheme(scheme).allocate(Grid(dims), num_disks)
    queries = workload(allocation.grid, 60, seed=11)
    rates = [5.0, 60.0, 250.0, 2000.0]
    reports = saturation_sweep(allocation, queries, rates, disk, seed=4)
    assert len(reports) == len(rates)
    simulator = OpenSystemSimulator(allocation, disk)
    for rate, report in zip(rates, reports):
        arrivals = poisson_arrivals(len(queries), rate, seed=4)
        separate = simulator.run(queries, arrivals)
        assert report.latencies_ms == separate.latencies_ms
        assert report.makespan_ms == separate.makespan_ms
        assert report.disk_busy_ms == separate.disk_busy_ms
        assert_same(
            report,
            reference_open_run(allocation, queries, arrivals, disk, False),
        )


def test_all_queries_outside_the_grid():
    allocation = get_scheme("dm").allocate(Grid((6, 6)), 3)
    queries = [outside_query(allocation.grid)] * 20
    report = OpenSystemSimulator(allocation).run(queries, np.arange(20.0))
    assert report.latencies_ms == [0.0] * 20
    assert report.makespan_ms == 0.0
    assert report.disk_busy_ms == [0.0] * 3
    closed = ParallelIOSimulator(allocation).run(queries)
    assert closed.latencies_ms == [0.0] * 20


class TestServiceTimes:
    @pytest.mark.parametrize("disk", [DiskModel(), CUSTOM_DISK])
    @pytest.mark.parametrize("sequential", [False, True])
    def test_matches_scalar_rule(self, disk, sequential):
        counts = np.arange(1001)
        times = disk.service_times_ms(counts, sequential)
        assert times.dtype == np.float64
        expected = []
        for n in range(1001):
            if n == 0:
                expected.append(0.0)
            elif sequential:
                expected.append(
                    disk.random_access_ms + n * disk.transfer_ms_per_bucket
                )
            else:
                expected.append(
                    n * (disk.random_access_ms
                         + disk.transfer_ms_per_bucket)
                )
        assert times.tolist() == expected
        assert [
            disk.service_time_ms(n, sequential) for n in range(1001)
        ] == expected

    def test_keeps_shape(self):
        counts = np.arange(12).reshape(3, 4)
        assert DiskModel().service_times_ms(counts).shape == (3, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            DiskModel().service_times_ms(np.array([[3, -1]]))


@pytest.mark.parametrize("count", [1, BATCH_THRESHOLD + 4])
def test_wrong_dimension_query_raises(count):
    allocation = get_scheme("dm").allocate(Grid((6, 6)), 3)
    queries = [RangeQuery((0, 0), (1, 1))] * (count - 1)
    queries.append(RangeQuery((0, 0, 0), (1, 1, 1)))
    with pytest.raises(QueryError):
        OpenSystemSimulator(allocation).run(queries, np.zeros(count))
    with pytest.raises(QueryError):
        saturation_sweep(allocation, queries, [10.0])
    with pytest.raises(QueryError):
        ParallelIOSimulator(allocation).run(queries)


def _simulation_spans(action):
    """``(name, attrs)`` of every ``simulation.*`` span ``action`` opens."""
    from repro.obs.trace import global_tracer

    tracer = global_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        before = len(tracer.spans())
        action()
        spans = tracer.spans()[before:]
    finally:
        if not was_enabled:
            tracer.disable()
            tracer.clear()
    return [
        (span["name"], span["attrs"])
        for span in spans
        if span["name"].startswith("simulation.")
    ]


class TestSpans:
    def test_one_sweep_span_per_call(self):
        allocation = get_scheme("hcam").allocate(Grid((8, 8)), 4)
        queries = workload(allocation.grid, 40, seed=2)
        spans = _simulation_spans(
            lambda: saturation_sweep(allocation, queries, [5.0, 50.0, 90.0])
        )
        assert spans == [
            (
                "simulation.sweep",
                {"num_queries": 40, "num_rates": 3, "num_disks": 4},
            )
        ]

    def test_one_run_span_per_call(self):
        allocation = get_scheme("hcam").allocate(Grid((8, 8)), 4)
        queries = workload(allocation.grid, 40, seed=3)
        simulator = OpenSystemSimulator(allocation)
        spans = _simulation_spans(
            lambda: simulator.run(queries, np.arange(40.0))
        )
        assert spans == [
            ("simulation.run", {"num_queries": 40, "num_disks": 4})
        ]
