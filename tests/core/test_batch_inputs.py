"""Query batches as workload inputs: bounds checks and batch-accepting APIs.

Every API that takes a query list also takes a
:class:`~repro.core.query.QueryBatch` and never turns it back into
:class:`~repro.core.query.RangeQuery` objects.
"""

import numpy as np
import pytest

from repro.core.cost import (
    BATCH_THRESHOLD,
    additive_deviation,
    batch_disk_counts,
    buckets_per_disk,
    optimal_times,
    relative_deviation,
    response_time,
    response_times,
)
from repro.core.engine import ResponseTimeEngine
from repro.core.evaluator import (
    SchemeEvaluator,
    evaluate_allocation_on_queries,
)
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery, placement_batch
from repro.core.registry import get_scheme
from repro.simulation.open_system import (
    OpenSystemSimulator,
    poisson_arrivals,
    saturation_sweep,
)


@pytest.fixture
def grid():
    return Grid((4, 4))


@pytest.fixture
def dm(grid):
    return get_scheme("dm").allocate(grid, 4)


@pytest.fixture
def no_query_objects(monkeypatch):
    """Fails the test if any RangeQuery is constructed inside it."""
    made = []
    original = RangeQuery.__post_init__

    def counted(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(RangeQuery, "__post_init__", counted)
    yield made
    assert made == [], f"{len(made)} RangeQuery object(s) built"


def _mixed_queries(grid, count):
    """Inside, overhanging and wholly outside queries, seeded."""
    rng = np.random.default_rng(count)
    queries = []
    for _ in range(count):
        lower = [int(rng.integers(0, d + 2)) for d in grid.dims]
        upper = [lo + int(rng.integers(0, d + 1)) for lo, d in
                 zip(lower, grid.dims)]
        queries.append(RangeQuery(tuple(lower), tuple(upper)))
    queries.append(RangeQuery(grid.dims, tuple(d + 1 for d in grid.dims)))
    return queries


class TestBoundsValidation:
    def test_negative_lower_bound_rejected(self, grid):
        with pytest.raises(QueryError, match="0 <= lo <= hi <= dims"):
            QueryBatch(np.array([[-1, 0]]), np.array([[1, 2]]), grid.dims)

    def test_lower_above_upper_rejected(self, grid):
        with pytest.raises(QueryError, match="row 1"):
            QueryBatch(
                np.array([[0, 0], [3, 1]]),
                np.array([[1, 1], [2, 4]]),
                grid.dims,
            )

    def test_upper_beyond_grid_rejected(self, grid):
        with pytest.raises(QueryError, match="dims=\\(4, 4\\)"):
            QueryBatch(np.array([[0, 0]]), np.array([[5, 2]]), grid.dims)

    def test_zero_extent_rows_at_the_edge_accepted(self, grid, dm):
        batch = QueryBatch(
            np.array([[4, 4], [0, 0]]), np.array([[4, 4], [4, 4]]), grid.dims
        )
        engine = ResponseTimeEngine(dm)
        assert engine.batch_response_times(batch).tolist() == [0, 4]
        assert engine.batch_disk_counts(batch)[0].tolist() == [0, 0, 0, 0]

    def test_from_queries_output_always_valid(self, grid):
        batch = QueryBatch.from_queries(_mixed_queries(grid, 30), grid)
        assert len(batch) == 31


class TestEffectiveOptimal:
    def test_overhanging_query_uses_the_clipped_optimum(self, dm):
        # (2,2)-(5,5) keeps a 2x2 corner inside the 4x4 grid: OPT 1.
        query = RangeQuery((2, 2), (5, 5))
        result = evaluate_allocation_on_queries(dm, [query])
        assert result.mean_response_time == response_time(dm, query) == 2
        assert result.mean_optimal == 1.0
        assert result.mean_relative_deviation == 1.0
        assert result.fraction_optimal == 0.0
        assert relative_deviation(dm, query) == 1.0
        assert additive_deviation(dm, query) == 1

    def test_query_outside_the_grid_has_optimum_zero(self, dm):
        outside = RangeQuery((6, 6), (7, 7))
        result = evaluate_allocation_on_queries(dm, [outside])
        assert result.mean_response_time == 0.0
        assert result.mean_optimal == 0.0
        assert result.fraction_optimal == 1.0
        assert additive_deviation(dm, outside) == 0

    @pytest.mark.parametrize("count", [3, BATCH_THRESHOLD + 4])
    def test_matches_the_engine_optimum(self, grid, dm, count):
        queries = _mixed_queries(grid, count)
        engine = ResponseTimeEngine(dm)
        result = evaluate_allocation_on_queries(dm, queries)
        assert result.mean_optimal == float(
            engine.batch_optimal(queries).mean()
        )


class TestBatchInputs:
    @pytest.mark.parametrize("count", [2, BATCH_THRESHOLD + 5])
    def test_cost_functions_match_the_list(self, grid, dm, count):
        queries = _mixed_queries(grid, count)
        batch = QueryBatch.from_queries(queries, grid)
        want_counts = np.array([buckets_per_disk(dm, q) for q in queries])
        want_times = [response_time(dm, q) for q in queries]
        engine = ResponseTimeEngine(dm)
        np.testing.assert_array_equal(
            batch_disk_counts(dm, batch), want_counts
        )
        assert response_times(dm, batch).tolist() == want_times
        assert response_times(dm, batch, engine).tolist() == want_times
        assert optimal_times(batch, 4).tolist() == (
            engine.batch_optimal(queries).tolist()
        )

    def test_batch_never_expands_into_query_objects(
        self, grid, dm, no_query_objects
    ):
        batch = placement_batch(grid, (2, 3))
        assert len(batch) < BATCH_THRESHOLD
        response_times(dm, batch)
        batch_disk_counts(dm, batch)
        optimal_times(batch, 4)
        evaluate_allocation_on_queries(dm, batch)
        SchemeEvaluator(grid, 4, ["dm", "hcam"]).evaluate_queries(batch)
        saturation_sweep(dm, batch, [10.0, 50.0])
        OpenSystemSimulator(dm).run(batch, poisson_arrivals(len(batch), 20))

    def test_evaluator_results_match_the_list(self):
        grid = Grid((8, 8))
        evaluator = SchemeEvaluator(grid, 4, ["dm", "hcam", "fx"])
        batch = placement_batch(grid, (3, 2))
        from_batch = evaluator.evaluate_queries(batch)
        from_list = evaluator.evaluate_queries(list(batch.iter_queries()))
        assert from_batch == from_list

    def test_empty_batch_rejected_by_the_evaluator(self, grid, dm):
        with pytest.raises(QueryError, match="no queries"):
            evaluate_allocation_on_queries(dm, placement_batch(grid, (5, 5)))

    def test_batch_for_another_grid_rejected(self, dm):
        batch = placement_batch(Grid((5, 5)), (2, 2))
        with pytest.raises(QueryError, match="does not match"):
            response_times(dm, batch)

    def test_simulators_match_the_list(self):
        grid = Grid((8, 8))
        dm = get_scheme("dm").allocate(grid, 4)
        batch = placement_batch(grid, (2, 3))
        queries = list(batch.iter_queries())
        rates = [20.0, 90.0]
        assert saturation_sweep(dm, batch, rates, seed=4) == (
            saturation_sweep(dm, queries, rates, seed=4)
        )
        arrivals = poisson_arrivals(len(batch), 60.0, seed=2)
        simulator = OpenSystemSimulator(dm)
        assert simulator.run(batch, arrivals) == (
            simulator.run(queries, arrivals)
        )
