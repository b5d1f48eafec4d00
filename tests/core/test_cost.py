"""Unit tests for :mod:`repro.core.cost` — the response-time model."""

import numpy as np
import pytest

from repro.core.allocation import DiskAllocation, allocation_from_function
from repro.core.cost import (
    additive_deviation,
    average_response_time,
    buckets_per_disk,
    optimal_response_time,
    per_query_costs,
    placements_at_optimal,
    query_optimal,
    relative_deviation,
    response_time,
    response_times,
    sliding_response_times,
    worst_response_time,
)
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import RangeQuery, all_placements, query_at
from repro.core.registry import get_scheme


class TestOptimalBound:
    @pytest.mark.parametrize(
        "buckets,disks,expected",
        [(0, 4, 0), (1, 4, 1), (4, 4, 1), (5, 4, 2), (8, 4, 2), (9, 4, 3),
         (1024, 16, 64), (7, 1, 7)],
    )
    def test_ceiling_division(self, buckets, disks, expected):
        assert optimal_response_time(buckets, disks) == expected

    def test_negative_buckets_rejected(self):
        with pytest.raises(QueryError):
            optimal_response_time(-1, 4)

    def test_nonpositive_disks_rejected(self):
        with pytest.raises(QueryError):
            optimal_response_time(4, 0)


class TestResponseTime:
    def test_checkerboard_counts(self, checkerboard_allocation):
        # 2x2 on a checkerboard: two buckets per color.
        q = RangeQuery((0, 0), (1, 1))
        assert buckets_per_disk(
            checkerboard_allocation, q
        ).tolist() == [2, 2]
        assert response_time(checkerboard_allocation, q) == 2

    def test_single_bucket_query(self, checkerboard_allocation):
        q = RangeQuery((3, 3), (3, 3))
        assert response_time(checkerboard_allocation, q) == 1

    def test_query_clipped_to_grid(self, checkerboard_allocation):
        inside = RangeQuery((6, 6), (7, 7))
        overhanging = RangeQuery((6, 6), (9, 9))
        assert response_time(
            checkerboard_allocation, overhanging
        ) == response_time(checkerboard_allocation, inside)

    def test_query_fully_outside_grid_costs_zero(
        self, checkerboard_allocation
    ):
        q = RangeQuery((20, 20), (22, 22))
        assert response_time(checkerboard_allocation, q) == 0

    def test_dimension_mismatch_rejected(self, checkerboard_allocation):
        with pytest.raises(QueryError):
            response_time(checkerboard_allocation, RangeQuery((0,), (1,)))

    def test_response_never_below_optimal(self, checkerboard_allocation):
        for q in all_placements(checkerboard_allocation.grid, (3, 2)):
            rt = response_time(checkerboard_allocation, q)
            assert rt >= query_optimal(q, 2)

    def test_deviations(self, checkerboard_allocation):
        q = RangeQuery((0, 0), (1, 1))  # RT 2, OPT 2
        assert additive_deviation(checkerboard_allocation, q) == 0
        assert relative_deviation(checkerboard_allocation, q) == 0.0
        q2 = RangeQuery((0, 0), (0, 1))  # RT 1, OPT 1
        assert additive_deviation(checkerboard_allocation, q2) == 0

    def test_response_times_vector(self, checkerboard_allocation):
        queries = [RangeQuery((0, 0), (1, 1)), RangeQuery((0, 0), (0, 0))]
        assert response_times(
            checkerboard_allocation, queries
        ).tolist() == [2, 1]


class TestSlidingWindows:
    def test_matches_per_query_evaluation(self):
        # Random allocation: sliding-window maxima must equal brute force.
        grid = Grid((6, 7))
        rng = np.random.default_rng(3)
        alloc = DiskAllocation(
            grid, 4, rng.integers(0, 4, size=grid.dims)
        )
        for shape in [(1, 1), (2, 3), (3, 2), (6, 7), (1, 7)]:
            times = sliding_response_times(alloc, shape)
            for query in all_placements(grid, shape):
                origin = tuple(query.lower)
                assert times[origin] == response_time(alloc, query)

    def test_matches_in_three_dimensions(self):
        grid = Grid((4, 3, 5))
        rng = np.random.default_rng(9)
        alloc = DiskAllocation(
            grid, 3, rng.integers(0, 3, size=grid.dims)
        )
        shape = (2, 2, 3)
        times = sliding_response_times(alloc, shape)
        for query in all_placements(grid, shape):
            assert times[tuple(query.lower)] == response_time(alloc, query)

    def test_output_shape(self, checkerboard_allocation):
        times = sliding_response_times(checkerboard_allocation, (3, 5))
        assert times.shape == (6, 4)

    def test_oversized_shape_gives_empty(self, checkerboard_allocation):
        times = sliding_response_times(checkerboard_allocation, (9, 2))
        assert times.size == 0

    def test_invalid_shape_rejected(self, checkerboard_allocation):
        with pytest.raises(QueryError):
            sliding_response_times(checkerboard_allocation, (0, 2))
        with pytest.raises(QueryError):
            sliding_response_times(checkerboard_allocation, (2,))


class TestAggregates:
    def test_average_response_time_checkerboard(
        self, checkerboard_allocation
    ):
        # Every 2x2 window of a checkerboard has exactly 2 per color.
        assert average_response_time(
            checkerboard_allocation, (2, 2)
        ) == pytest.approx(2.0)

    def test_worst_response_time(self, checkerboard_allocation):
        assert worst_response_time(checkerboard_allocation, (2, 2)) == 2

    def test_placements_at_optimal_checkerboard(
        self, checkerboard_allocation
    ):
        # 2x2 windows: OPT = 2 and every window achieves it.
        assert placements_at_optimal(
            checkerboard_allocation, (2, 2)
        ) == pytest.approx(1.0)
        # 1x2 windows: OPT = 1, achieved everywhere too.
        assert placements_at_optimal(
            checkerboard_allocation, (1, 2)
        ) == pytest.approx(1.0)

    def test_aggregates_reject_oversized_shape(
        self, checkerboard_allocation
    ):
        with pytest.raises(QueryError):
            average_response_time(checkerboard_allocation, (9, 1))
        with pytest.raises(QueryError):
            worst_response_time(checkerboard_allocation, (9, 1))
        with pytest.raises(QueryError):
            placements_at_optimal(checkerboard_allocation, (9, 1))


class TestPerQueryCosts:
    def test_rows_contain_consistent_fields(self, checkerboard_allocation):
        queries = [query_at((0, 0), (2, 2)), query_at((1, 1), (1, 3))]
        rows = per_query_costs(checkerboard_allocation, queries)
        assert len(rows) == 2
        for row in rows:
            assert row["response_time"] >= row["optimal"]
            assert row["additive_deviation"] == (
                row["response_time"] - row["optimal"]
            )


class TestEmptyQueryDeviations:
    """Queries that clip to zero buckets must not divide by zero."""

    def test_relative_deviation_outside_grid_is_zero(
        self, checkerboard_allocation
    ):
        outside = RangeQuery((20, 20), (22, 22))
        assert relative_deviation(checkerboard_allocation, outside) == 0.0

    def test_per_query_costs_outside_grid(self, checkerboard_allocation):
        outside = RangeQuery((20, 20), (22, 22))
        (row,) = per_query_costs(checkerboard_allocation, [outside])
        assert row["response_time"] == 0
        assert row["optimal"] == 0
        assert row["additive_deviation"] == 0
        assert row["relative_deviation"] == 0.0

    def test_partially_clipped_query_uses_effective_optimal(
        self, checkerboard_allocation
    ):
        # 2x4 rectangle with only a 2x2 corner inside the grid: RT and OPT
        # must both be computed on the 4 in-grid buckets.
        overhanging = RangeQuery((6, 6), (7, 9))
        (row,) = per_query_costs(checkerboard_allocation, [overhanging])
        assert row["optimal"] == 2
        assert row["response_time"] == 2
        assert relative_deviation(
            checkerboard_allocation, overhanging
        ) == 0.0

    def test_bucket_count_is_clipped_to_the_grid(self):
        # (2,2)-(5,5) on a 4x4 grid keeps its 2x2 corner: 4 buckets,
        # the count OPT 1 is taken over.
        dm = get_scheme("dm").allocate(Grid((4, 4)), 4)
        (row,) = per_query_costs(dm, [RangeQuery((2, 2), (5, 5))])
        assert row["buckets"] == 4
        assert row["optimal"] == 1
        (outside,) = per_query_costs(dm, [RangeQuery((6, 6), (7, 7))])
        assert outside["buckets"] == 0

    def test_fitting_queries_unchanged(self, checkerboard_allocation):
        q = query_at((0, 0), (2, 2))
        assert relative_deviation(checkerboard_allocation, q) == 0.0
        (row,) = per_query_costs(checkerboard_allocation, [q])
        assert row["optimal"] == query_optimal(q, 2)


class TestWorstCaseAllocation:
    def test_everything_on_one_disk(self):
        grid = Grid((4, 4))
        alloc = allocation_from_function(grid, 4, lambda c: 0)
        q = RangeQuery((0, 0), (3, 3))
        assert response_time(alloc, q) == 16
        assert query_optimal(q, 4) == 4
        assert relative_deviation(alloc, q) == pytest.approx(3.0)
