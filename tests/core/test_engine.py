"""Unit tests for :mod:`repro.core.engine` — the integral-image kernel."""

import numpy as np
import pytest

from repro.core.allocation import DiskAllocation
from repro.core.cost import optimal_response_time, response_time
from repro.core.engine import ResponseTimeEngine
from repro.core.evaluator import (
    EvaluationResult,
    SchemeEvaluator,
    evaluate_allocation_on_shapes,
)
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import all_placements, shapes_with_area


@pytest.fixture
def random_allocation() -> DiskAllocation:
    grid = Grid((6, 7))
    rng = np.random.default_rng(42)
    return DiskAllocation(grid, 4, rng.integers(0, 4, size=grid.dims))


def _brute_force_times(allocation, shape):
    """RT at every placement, one scalar ``response_time`` call each."""
    extents = tuple(
        max(d - s + 1, 0) for s, d in zip(shape, allocation.grid.dims)
    )
    times = np.zeros(extents, dtype=np.int64)
    for query in all_placements(allocation.grid, shape):
        times[tuple(query.lower)] = response_time(allocation, query)
    return times


def _brute_force_result(allocation, shapes, scheme_name):
    """``evaluate_allocation_on_shapes`` computed query by query."""
    times, optima = [], []
    for shape in shapes:
        opt = optimal_response_time(int(np.prod(shape)), allocation.num_disks)
        for query in all_placements(allocation.grid, shape):
            times.append(response_time(allocation, query))
            optima.append(opt)
    times, optima = np.array(times), np.array(optima)
    return EvaluationResult(
        scheme=scheme_name,
        num_queries=int(times.size),
        mean_response_time=float(times.mean()),
        mean_optimal=float(optima.mean()),
        worst_response_time=int(times.max()),
        fraction_optimal=float((times == optima).mean()),
    )


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (2, 3), (3, 2), (6, 7), (1, 7), (6, 1)]
    )
    def test_matches_brute_force(self, random_allocation, shape):
        engine = ResponseTimeEngine(random_allocation)
        expected = _brute_force_times(random_allocation, shape)
        computed = engine.sliding_response_times(shape)
        assert computed.dtype == expected.dtype
        assert np.array_equal(computed, expected)

    def test_three_dimensional(self):
        grid = Grid((4, 3, 5))
        rng = np.random.default_rng(7)
        alloc = DiskAllocation(grid, 3, rng.integers(0, 3, size=grid.dims))
        engine = ResponseTimeEngine(alloc)
        for shape in [(1, 1, 1), (2, 2, 3), (4, 3, 5), (1, 3, 2)]:
            assert np.array_equal(
                engine.sliding_response_times(shape),
                _brute_force_times(alloc, shape),
            )

    def test_one_dimensional(self):
        grid = Grid((9,))
        alloc = DiskAllocation(grid, 3, np.arange(9) % 3)
        engine = ResponseTimeEngine(alloc)
        for side in range(1, 10):
            assert np.array_equal(
                engine.sliding_response_times((side,)),
                _brute_force_times(alloc, (side,)),
            )


class TestEdgeCases:
    def test_oversized_shape_gives_empty(self, random_allocation):
        engine = ResponseTimeEngine(random_allocation)
        times = engine.sliding_response_times((9, 2))
        assert times.shape == (0, 6)
        assert times.dtype == np.int64

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
    def test_given_and_built_engine_match_brute_force(self, random_allocation):
        shapes = list(shapes_with_area(random_allocation.grid, 6))
        engine = ResponseTimeEngine(random_allocation)
        given = evaluate_allocation_on_shapes(
            random_allocation, shapes, scheme_name="rand", engine=engine
        )
        built = evaluate_allocation_on_shapes(
            random_allocation, shapes, scheme_name="rand"
        )
        expected = _brute_force_result(random_allocation, shapes, "rand")
        assert given == expected
        assert built == expected

    def test_scheme_evaluator_matches_brute_force(self):
        grid = Grid((8, 8))
        shapes = [(1, 1), (2, 2), (4, 2), (8, 8)]
        evaluator = SchemeEvaluator(grid, 4, ["dm", "fx"])
        expected = [
            _brute_force_result(evaluator.allocation(name), shapes, name)
            for name in evaluator.scheme_names
        ]
        assert evaluator.evaluate_shapes(shapes) == expected

    def test_engine_rejects_unfitting_shape_like_scalar_path(
        self, random_allocation
    ):
        engine = ResponseTimeEngine(random_allocation)
        with pytest.raises(QueryError):
            evaluate_allocation_on_shapes(
                random_allocation, [(9, 9)], engine=engine
            )
