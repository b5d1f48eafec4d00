"""Unit tests for degraded-mode cost and availability semantics."""

import numpy as np
import pytest

from repro.core.cost import BATCH_THRESHOLD, buckets_per_disk, response_time
from repro.core.exceptions import FaultError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery, all_placements, query_at
from repro.core.registry import get_scheme
from repro.faults.degraded import (
    availability,
    degraded_buckets_per_disk,
    degraded_optimal_response_time,
    degraded_response_time,
    query_is_available,
    replicated_availability,
    replicated_query_is_available,
)
from repro.faults.models import FailStop, FaultScenario, Slowdown
from repro.replication.allocation import chained_replication


@pytest.fixture
def grid():
    return Grid((8, 8))


@pytest.fixture
def dm(grid):
    return get_scheme("dm").allocate(grid, 4)


@pytest.fixture
def chained(dm):
    return chained_replication(dm)


class TestDegradedCounts:
    def test_failed_disks_zeroed(self, dm):
        query = query_at((0, 0), (4, 4))
        scenario = FaultScenario(4, [FailStop(2)])
        healthy = buckets_per_disk(dm, query)
        degraded = degraded_buckets_per_disk(dm, query, scenario)
        assert degraded[2] == 0
        mask = np.arange(4) != 2
        assert np.array_equal(degraded[mask], healthy[mask])

    def test_healthy_scenario_matches_healthy_cost(self, dm):
        query = query_at((1, 2), (3, 3))
        scenario = FaultScenario.healthy(4)
        assert degraded_response_time(dm, query, scenario) == float(
            response_time(dm, query)
        )

    def test_failure_caps_at_surviving_max(self, dm):
        query = query_at((0, 0), (4, 4))
        scenario = FaultScenario(4, [FailStop(1)])
        counts = degraded_buckets_per_disk(dm, query, scenario)
        assert degraded_response_time(dm, query, scenario) == float(
            counts.max()
        )

    def test_straggler_weights_completion(self, dm):
        query = query_at((0, 0), (4, 4))
        scenario = FaultScenario(4, [Slowdown(0, 3.0)])
        counts = buckets_per_disk(dm, query)
        expected = max(
            counts[d] * (3.0 if d == 0 else 1.0) for d in range(4)
        )
        assert degraded_response_time(
            dm, query, scenario
        ) == pytest.approx(expected)

    def test_scenario_size_mismatch_rejected(self, dm):
        with pytest.raises(FaultError):
            degraded_response_time(
                dm, query_at((0, 0), (2, 2)), FaultScenario.healthy(8)
            )


class TestAvailability:
    def test_wide_query_lost_under_any_failure(self, dm):
        # A full row of 8 buckets on 4 disks touches every disk.
        query = query_at((0, 0), (1, 8))
        for disk in range(4):
            scenario = FaultScenario(4, [FailStop(disk)])
            assert not query_is_available(dm, query, scenario)

    def test_single_bucket_query_only_needs_its_disk(self, dm):
        query = query_at((0, 0), (1, 1))
        owner = dm.disk_of((0, 0))
        other = (owner + 1) % 4
        assert not query_is_available(
            dm, query, FaultScenario(4, [FailStop(owner)])
        )
        assert query_is_available(
            dm, query, FaultScenario(4, [FailStop(other)])
        )

    def test_slowdowns_never_lose_queries(self, dm):
        scenario = FaultScenario(4, [Slowdown(0, 10.0)])
        query = query_at((0, 0), (1, 8))
        assert query_is_available(dm, query, scenario)

    def test_availability_fraction(self, dm, grid):
        queries = list(all_placements(grid, (1, 1)))
        scenario = FaultScenario(4, [FailStop(0)])
        # Exactly the buckets on disk 0 become unavailable: 1/4 of a
        # storage-balanced allocation.
        assert availability(dm, queries, scenario) == pytest.approx(0.75)

    def test_empty_workload_is_fully_available(self, dm):
        assert availability(dm, [], FaultScenario(4, [FailStop(0)])) == 1.0


def _availability_workload(grid, count, seed):
    """Inside, overhanging and wholly outside queries."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        lower = [int(rng.integers(0, d + 2)) for d in grid.dims]
        upper = [lo + int(rng.integers(0, 4)) for lo in lower]
        queries.append(RangeQuery(tuple(lower), tuple(upper)))
    queries.append(RangeQuery((6, 6), (12, 12)))
    queries.append(RangeQuery((9, 9), (10, 10)))
    return queries


class TestBatchedAvailability:
    """``availability`` (one batch) against the per-query oracle."""

    @pytest.mark.parametrize(
        "count", [0, 3, BATCH_THRESHOLD - 3, BATCH_THRESHOLD, 60]
    )
    @pytest.mark.parametrize(
        "failed", [(), (0,), (1, 3), (0, 1, 2, 3)]
    )
    def test_matches_query_is_available(self, dm, grid, count, failed):
        queries = _availability_workload(grid, count, seed=count)
        scenario = FaultScenario(4, [FailStop(list(failed))] if failed else [])
        answered = sum(
            query_is_available(dm, query, scenario) for query in queries
        )
        expected = answered / len(queries)
        assert availability(dm, queries, scenario) == expected
        batch = QueryBatch.from_queries(queries, grid)
        assert availability(dm, batch, scenario) == expected

    def test_scenario_size_checked(self, dm):
        with pytest.raises(FaultError):
            availability(dm, [query_at((0, 0), (2, 2))], FaultScenario(8))


class TestReplicatedAvailability:
    def test_any_single_failure_fully_masked(self, chained, grid):
        queries = list(all_placements(grid, (2, 2)))
        for disk in range(4):
            scenario = FaultScenario(4, [FailStop(disk)])
            assert replicated_availability(
                chained, queries, scenario
            ) == 1.0

    def test_adjacent_double_failure_loses_buckets(self, chained):
        # Offset-1 chaining stores disk-0 primaries on disk 1; failing
        # both kills every copy of those buckets.
        scenario = FaultScenario(4, [FailStop([0, 1])])
        lost_query = None
        for query in all_placements(chained.grid, (1, 1)):
            coords = next(iter(query.iter_buckets()))
            if chained.disks_of(coords) == (0, 1):
                lost_query = query
                break
        assert lost_query is not None
        assert not replicated_query_is_available(
            chained, lost_query, scenario
        )

    def test_non_adjacent_double_failure_masked(self, chained, grid):
        # Disks 0 and 2 never form a (primary, backup) pair under
        # offset-1 chaining on 4 disks.
        scenario = FaultScenario(4, [FailStop([0, 2])])
        queries = list(all_placements(grid, (2, 2)))
        assert replicated_availability(
            chained, queries, scenario
        ) == 1.0

    def test_query_outside_grid_is_trivially_available(self, chained):
        from repro.core.query import RangeQuery

        scenario = FaultScenario(4, [FailStop(0)])
        assert replicated_query_is_available(
            chained, RangeQuery((20, 20), (22, 22)), scenario
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_fraction_matches_scalar_oracle(self, seed):
        from repro.core.query import RangeQuery
        from repro.replication.allocation import orthogonal_replication

        rng = np.random.default_rng(seed)
        num_disks = int(rng.integers(3, 9))
        grid = Grid((9, 7))
        replicated = orthogonal_replication(grid, num_disks, "dm", "hcam")
        queries = []
        for _ in range(30):
            lower = [int(rng.integers(0, side + 2)) for side in grid.dims]
            upper = [
                low + int(rng.integers(0, side))
                for low, side in zip(lower, grid.dims)
            ]
            queries.append(RangeQuery(tuple(lower), tuple(upper)))
        # Every fail-stop count, up to all but one disk.
        for num_failed in range(1, num_disks):
            failed = rng.choice(num_disks, num_failed, replace=False)
            scenario = FaultScenario(num_disks, [FailStop(failed.tolist())])
            expected = sum(
                replicated_query_is_available(replicated, q, scenario)
                for q in queries
            ) / len(queries)
            assert replicated_availability(
                replicated, queries, scenario
            ) == expected

    def test_batch_rejects_mismatched_queries(self, chained):
        from repro.core.query import RangeQuery

        with pytest.raises(FaultError):
            replicated_availability(
                chained, [RangeQuery((0,), (1,))], FaultScenario(4)
            )
        with pytest.raises(FaultError):
            replicated_availability(
                chained, [query_at((0, 0), (2, 2))], FaultScenario(5)
            )


class TestDegradedOptimum:
    def test_healthy_is_ceiling_bound(self):
        scenario = FaultScenario.healthy(4)
        assert degraded_optimal_response_time(16, scenario) == 4.0
        assert degraded_optimal_response_time(17, scenario) == 5.0

    def test_failures_shrink_parallelism(self):
        scenario = FaultScenario(4, [FailStop(0)])
        assert degraded_optimal_response_time(16, scenario) == 6.0

    def test_zero_buckets_cost_nothing(self):
        assert degraded_optimal_response_time(
            0, FaultScenario(4, [FailStop(0)])
        ) == 0.0

    def test_straggler_optimum_balances_weighted_capacity(self):
        # Disks with factors (1, 2): by T=2 they finish 2 + 1 = 3
        # buckets, so n=3 costs exactly 2.0.
        scenario = FaultScenario(2, [Slowdown(1, 2.0)])
        assert degraded_optimal_response_time(
            3, scenario
        ) == pytest.approx(2.0)

    def test_no_survivors_is_undefined(self):
        scenario = FaultScenario(2, [FailStop([0])])
        with pytest.raises(FaultError):
            degraded_optimal_response_time(
                4, FaultScenario(1, [FailStop(0)])
            )
        # One failure of two still has a survivor.
        assert degraded_optimal_response_time(4, scenario) == 4.0

    def test_negative_buckets_rejected(self):
        with pytest.raises(FaultError):
            degraded_optimal_response_time(-1, FaultScenario.healthy(2))


def _fault_spans(action):
    """``(name, attrs)`` of every ``faults.*`` span ``action`` opens."""
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
        if span["name"].startswith("faults.")
    ]


class TestAvailabilitySpans:
    """One span per availability call, never one per query."""

    @pytest.mark.parametrize("count", [5, 500])
    def test_one_availability_span_per_call(self, dm, grid, count):
        queries = _availability_workload(grid, count - 2, seed=count)
        scenario = FaultScenario(4, [FailStop(1)])
        spans = _fault_spans(lambda: availability(dm, queries, scenario))
        assert spans == [
            ("faults.availability", {"num_queries": count, "num_disks": 4})
        ]

    @pytest.mark.parametrize("count", [5, 500])
    def test_one_replicated_span_per_call(self, chained, grid, count):
        queries = _availability_workload(grid, count - 2, seed=count)
        scenario = FaultScenario(4, [FailStop([0, 1])])
        spans = _fault_spans(
            lambda: replicated_availability(chained, queries, scenario)
        )
        assert spans == [
            (
                "faults.replicated_availability",
                {"num_queries": count, "num_disks": 4},
            )
        ]

