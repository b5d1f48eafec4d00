"""Guard tests for the array workload builders.

Each builder must produce exactly the bounds that
``QueryBatch.from_queries`` gives for the per-query loop it replaced
(kept here as the oracle), on 1-D to 3-D grids.
"""

import itertools

import numpy as np
import pytest

from repro.core.exceptions import QueryError, WorkloadError
from repro.core.grid import Grid
from repro.core.query import (
    QueryBatch,
    all_placements,
    partial_match_query,
    placement_batch,
    query_at,
)
from repro.experiments.exp_partial_match import partial_match_queries_with
from repro.obs.trace import global_tracer
from repro.workloads.queries import (
    partial_match_batch,
    random_queries_of_shape,
    random_shape_batch,
)

GRIDS = [Grid((7,)), Grid((5, 3)), Grid((4, 3, 2)), Grid((2, 2, 2))]


def _oracle_placements(grid, shape):
    origins = itertools.product(
        *(range(d - s + 1) for s, d in zip(shape, grid.dims))
    )
    return [query_at(origin, shape) for origin in origins]


def _oracle_random(grid, shape, count, rng):
    return [
        query_at(
            [int(rng.integers(0, d - s + 1)) for s, d in zip(shape, grid.dims)],
            shape,
        )
        for _ in range(count)
    ]


def _oracle_partial_match(grid, num_specified):
    queries = []
    for axes in itertools.combinations(range(grid.ndim), num_specified):
        value_ranges = [
            range(grid.dims[a]) if a in axes else [None]
            for a in range(grid.ndim)
        ]
        for values in itertools.product(*value_ranges):
            queries.append(partial_match_query(grid, list(values)))
    return queries


def _shapes(grid):
    """Every shape up to one past each extent (some do not fit)."""
    return itertools.product(*(range(1, d + 2) for d in grid.dims))


def assert_same_batch(batch, expected):
    assert isinstance(batch, QueryBatch)
    assert batch.dims == expected.dims
    assert batch.lo.dtype == batch.hi.dtype == np.int64
    np.testing.assert_array_equal(batch.lo, expected.lo)
    np.testing.assert_array_equal(batch.hi, expected.hi)


class TestPlacementBatch:
    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_equals_the_per_query_loop(self, grid):
        for shape in _shapes(grid):
            expected = _oracle_placements(grid, shape)
            batch = placement_batch(grid, shape)
            assert_same_batch(batch, QueryBatch.from_queries(expected, grid))
            assert list(all_placements(grid, shape)) == expected

    def test_shape_that_does_not_fit_is_an_empty_batch(self):
        grid = Grid((4, 3))
        batch = placement_batch(grid, (2, 4))
        assert len(batch) == 0 and batch.lo.shape == (0, 2)
        assert list(all_placements(grid, (2, 4))) == []

    def test_invalid_shapes_rejected(self):
        grid = Grid((4, 3))
        with pytest.raises(QueryError, match="arity"):
            placement_batch(grid, (2,))
        with pytest.raises(QueryError, match="positive"):
            placement_batch(grid, (0, 1))


class TestRandomShapeBatch:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_same_origins_and_generator_state(self, grid, seed):
        shape = tuple(max(1, d // 2) for d in grid.dims)
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        batch = random_shape_batch(grid, shape, 37, seed=ours)
        expected = _oracle_random(grid, shape, 37, theirs)
        assert_same_batch(batch, QueryBatch.from_queries(expected, grid))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_full_extent_shape_draws_like_the_loop(self, grid):
        # A side equal to its extent has one origin; the draw still
        # advances the generator exactly as the scalar call did.
        ours = np.random.default_rng(5)
        theirs = np.random.default_rng(5)
        batch = random_shape_batch(grid, grid.dims, 9, seed=ours)
        expected = _oracle_random(grid, grid.dims, 9, theirs)
        assert_same_batch(batch, QueryBatch.from_queries(expected, grid))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_list_view_and_integer_seed(self):
        grid = Grid((16, 16))
        queries = random_queries_of_shape(grid, (2, 3), 50, seed=3)
        expected = _oracle_random(
            grid, (2, 3), 50, np.random.default_rng(3)
        )
        assert queries == expected

    def test_shape_that_does_not_fit_rejected(self):
        with pytest.raises(WorkloadError, match="does not fit"):
            random_shape_batch(Grid((4, 3)), (2, 4), 5)
        with pytest.raises(WorkloadError, match="positive"):
            random_shape_batch(Grid((4, 3)), (2, 2), 0)


class TestPartialMatchBatch:
    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_equals_the_per_query_loop(self, grid):
        for num_specified in range(grid.ndim + 1):
            expected = _oracle_partial_match(grid, num_specified)
            batch = partial_match_batch(grid, num_specified)
            assert_same_batch(batch, QueryBatch.from_queries(expected, grid))
            assert partial_match_queries_with(grid, num_specified) == expected

    def test_out_of_range_count_rejected(self):
        with pytest.raises(WorkloadError, match="outside"):
            partial_match_batch(Grid((4, 4)), 3)


class TestBatchRows:
    def test_take_and_concatenate(self):
        grid = Grid((6, 5))
        batch = placement_batch(grid, (2, 2))
        strided = batch.take(slice(0, 12, 3))
        queries = list(all_placements(grid, (2, 2)))
        assert list(strided.iter_queries()) == queries[0:12:3]
        both = QueryBatch.concatenate([strided, batch])
        assert list(both.iter_queries()) == queries[0:12:3] + queries

    def test_concatenate_needs_one_grid(self):
        with pytest.raises(QueryError):
            QueryBatch.concatenate(
                [placement_batch(Grid((4,)), (1,)),
                 placement_batch(Grid((5,)), (1,))]
            )
        with pytest.raises(QueryError):
            QueryBatch.concatenate([])


class TestBuilderSpans:
    @pytest.mark.parametrize(
        "build, kind, count",
        [
            (lambda g: placement_batch(g, (2, 2)), "placements", 12),
            (lambda g: random_shape_batch(g, (2, 2), 40), "random", 40),
            (lambda g: partial_match_batch(g, 1), "partial_match", 9),
        ],
    )
    def test_one_span_per_call(self, build, kind, count):
        tracer = global_tracer()
        was_enabled = tracer.enabled
        tracer.enable()
        try:
            before = len(tracer.spans())
            batch = build(Grid((4, 5)))
            spans = tracer.spans()[before:]
        finally:
            if not was_enabled:
                tracer.disable()
                tracer.clear()
        assert len(batch) == count
        assert [(s["name"], s["attrs"]) for s in spans] == [
            ("workload.batch", {"kind": kind, "num_queries": count})
        ]
