"""Unit tests for :mod:`repro.core.engine` — the integral-image kernel."""

import numpy as np
import pytest

from repro.core.allocation import DiskAllocation
from repro.core.cost import response_time, sliding_response_times
from repro.core.engine import ResponseTimeEngine
from repro.core.evaluator import SchemeEvaluator, evaluate_allocation_on_shapes
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import all_placements, shapes_with_area


@pytest.fixture
def random_allocation() -> DiskAllocation:
    grid = Grid((6, 7))
    rng = np.random.default_rng(42)
    return DiskAllocation(grid, 4, rng.integers(0, 4, size=grid.dims))


class TestAgainstScalarKernel:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (2, 3), (3, 2), (6, 7), (1, 7), (6, 1)]
    )
    def test_matches_sliding_kernel(self, random_allocation, shape):
        engine = ResponseTimeEngine(random_allocation)
        expected = sliding_response_times(random_allocation, shape)
        computed = engine.sliding_response_times(shape)
        assert computed.dtype == expected.dtype
        assert np.array_equal(computed, expected)

    def test_matches_brute_force(self, random_allocation):
        engine = ResponseTimeEngine(random_allocation)
        times = engine.sliding_response_times((2, 3))
        for query in all_placements(random_allocation.grid, (2, 3)):
            assert times[tuple(query.lower)] == response_time(
                random_allocation, query
            )

    def test_three_dimensional(self):
        grid = Grid((4, 3, 5))
        rng = np.random.default_rng(7)
        alloc = DiskAllocation(grid, 3, rng.integers(0, 3, size=grid.dims))
        engine = ResponseTimeEngine(alloc)
        for shape in [(1, 1, 1), (2, 2, 3), (4, 3, 5), (1, 3, 2)]:
            assert np.array_equal(
                engine.sliding_response_times(shape),
                sliding_response_times(alloc, shape),
            )

    def test_one_dimensional(self):
        grid = Grid((9,))
        alloc = DiskAllocation(grid, 3, np.arange(9) % 3)
        engine = ResponseTimeEngine(alloc)
        for side in range(1, 10):
            assert np.array_equal(
                engine.sliding_response_times((side,)),
                sliding_response_times(alloc, (side,)),
            )


class TestDiskWindowCounts:
    def test_counts_sum_to_window_area(self, random_allocation):
        engine = ResponseTimeEngine(random_allocation)
        counts = engine.disk_window_counts((3, 2))
        assert counts.shape == (4, 4, 6)
        assert (counts.sum(axis=0) == 6).all()

    def test_single_bucket_windows_are_onehot(self, random_allocation):
        counts = ResponseTimeEngine(random_allocation).disk_window_counts(
            (1, 1)
        )
        assert (counts.sum(axis=0) == 1).all()
        assert counts.max() == 1


class TestEdgeCases:
    def test_oversized_shape_gives_empty(self, random_allocation):
        engine = ResponseTimeEngine(random_allocation)
        times = engine.sliding_response_times((9, 2))
        assert times.size == 0
        assert times.shape == sliding_response_times(
            random_allocation, (9, 2)
        ).shape

    def test_invalid_shapes_rejected(self, random_allocation):
        engine = ResponseTimeEngine(random_allocation)
        with pytest.raises(QueryError):
            engine.sliding_response_times((0, 2))
        with pytest.raises(QueryError):
            engine.sliding_response_times((2,))

    def test_allocation_property_and_nbytes(self, random_allocation):
        engine = ResponseTimeEngine(random_allocation)
        assert engine.allocation is random_allocation
        assert engine.num_disks == 4
        # SAT: (M, d1+1, d2+1) int32 (int64 only past 2^31 buckets).
        assert engine.nbytes() == 4 * 7 * 8 * 4


class TestEvaluatorIntegration:
    def test_engine_path_bit_identical_on_shapes(self, random_allocation):
        shapes = list(shapes_with_area(random_allocation.grid, 6))
        engine = ResponseTimeEngine(random_allocation)
        fast = evaluate_allocation_on_shapes(
            random_allocation, shapes, scheme_name="rand", engine=engine
        )
        slow = evaluate_allocation_on_shapes(
            random_allocation, shapes, scheme_name="rand"
        )
        assert fast == slow

    def test_scheme_evaluator_paths_agree(self):
        grid = Grid((8, 8))
        shapes = [(1, 1), (2, 2), (4, 2), (8, 8)]
        evaluator = SchemeEvaluator(grid, 4, ["dm", "fx"])
        fast = evaluator.evaluate_shapes(shapes)
        slow = [
            evaluate_allocation_on_shapes(
                evaluator.allocation(name), shapes, scheme_name=name
            )
            for name in evaluator.scheme_names
        ]
        assert fast == slow

    def test_engine_rejects_unfitting_shape_like_scalar_path(
        self, random_allocation
    ):
        engine = ResponseTimeEngine(random_allocation)
        with pytest.raises(QueryError):
            evaluate_allocation_on_shapes(
                random_allocation, [(9, 9)], engine=engine
            )
