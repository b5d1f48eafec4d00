"""The one query-set boundary: ``QueryBatch.of`` at every entry point.

Every multi-query API converts its workload with
:meth:`~repro.core.query.QueryBatch.of` first, so a query list, a query
generator and the equivalent batch must give the same answer on both
sides of :data:`~repro.core.cost.BATCH_THRESHOLD`, and a batch clipped
for another grid must be refused everywhere.
"""

import numpy as np
import pytest

from repro.core.cost import (
    BATCH_THRESHOLD,
    ENGINE_ENTRIES_PER_ROW,
    batch_disk_counts,
    buckets_per_disk,
    engine_rows,
    response_time,
    response_times,
)
from repro.core.engine import ResponseTimeEngine
from repro.core.evaluator import (
    SchemeEvaluator,
    evaluate_allocation_on_queries,
)
from repro.core.exceptions import FaultError, QueryError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery, placement_batch
from repro.core.registry import get_scheme
from repro.faults.degraded import availability, replicated_availability
from repro.faults.models import FailStop, FaultScenario
from repro.replication.allocation import chained_replication
from repro.replication.planner import plan_batch
from repro.simulation.open_system import (
    OpenSystemSimulator,
    poisson_arrivals,
    saturation_sweep,
)

GRID = Grid((6, 5))
NUM_DISKS = 4


def _mixed_queries(count, seed=0):
    """Inside, overhanging and wholly outside queries, seeded."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count - 1):
        lower = [int(rng.integers(0, d + 2)) for d in GRID.dims]
        upper = [lo + int(rng.integers(0, d + 1))
                 for lo, d in zip(lower, GRID.dims)]
        queries.append(RangeQuery(tuple(lower), tuple(upper)))
    queries.append(RangeQuery(GRID.dims, tuple(d + 2 for d in GRID.dims)))
    return queries


class _Context:
    def __init__(self):
        self.allocation = get_scheme("dm").allocate(GRID, NUM_DISKS)
        self.engine = ResponseTimeEngine(self.allocation)
        self.replicated = chained_replication(self.allocation)


def _arrivals(count):
    return poisson_arrivals(count, 50.0, seed=3)


_FAILED = FaultScenario(NUM_DISKS, [FailStop(1)])
_BOTH_COPIES = FaultScenario(NUM_DISKS, [FailStop((1, 2))])

#: name -> (call(context, queries, count) -> comparable, refusal type)
ENTRY_POINTS = {
    "response_times": (
        lambda c, q, n: response_times(c.allocation, q).tolist(),
        QueryError,
    ),
    "batch_disk_counts": (
        lambda c, q, n: batch_disk_counts(c.allocation, q).tolist(),
        QueryError,
    ),
    "engine.batch_response_times": (
        lambda c, q, n: c.engine.batch_response_times(q).tolist(),
        QueryError,
    ),
    "engine.batch_disk_counts": (
        lambda c, q, n: c.engine.batch_disk_counts(q).tolist(),
        QueryError,
    ),
    "engine.batch_optimal": (
        lambda c, q, n: c.engine.batch_optimal(q).tolist(),
        QueryError,
    ),
    "engine.batch_deviations": (
        lambda c, q, n: c.engine.batch_deviations(q).tolist(),
        QueryError,
    ),
    "evaluate_allocation_on_queries": (
        lambda c, q, n: evaluate_allocation_on_queries(c.allocation, q),
        QueryError,
    ),
    "SchemeEvaluator.evaluate_queries": (
        lambda c, q, n: SchemeEvaluator(
            GRID, NUM_DISKS, ["dm", "fx"]
        ).evaluate_queries(q),
        QueryError,
    ),
    "plan_batch": (
        lambda c, q, n: [
            part.tolist()
            for part in plan_batch(c.replicated, q, scenarios=[None, _FAILED])
        ],
        QueryError,
    ),
    "availability": (
        lambda c, q, n: availability(c.allocation, q, _FAILED),
        QueryError,
    ),
    "replicated_availability": (
        lambda c, q, n: replicated_availability(c.replicated, q, _BOTH_COPIES),
        FaultError,
    ),
    "OpenSystemSimulator.run": (
        lambda c, q, n: OpenSystemSimulator(c.allocation).run(
            q, _arrivals(n)
        ),
        QueryError,
    ),
    "saturation_sweep": (
        lambda c, q, n: saturation_sweep(c.allocation, q, [20.0, 90.0]),
        QueryError,
    ),
}


@pytest.fixture(scope="module")
def context():
    return _Context()


class TestOf:
    def test_batch_passes_through(self):
        batch = placement_batch(GRID, (2, 2))
        assert QueryBatch.of(batch, GRID) is batch

    @pytest.mark.parametrize("wrap", [list, iter, tuple])
    def test_query_iterables_convert_like_from_queries(self, wrap):
        queries = _mixed_queries(9)
        want = QueryBatch.from_queries(queries, GRID)
        got = QueryBatch.of(wrap(queries), GRID)
        np.testing.assert_array_equal(got.lo, want.lo)
        np.testing.assert_array_equal(got.hi, want.hi)
        assert got.dims == GRID.dims

    def test_empty_iterable_gives_an_empty_batch(self):
        batch = QueryBatch.of(iter([]), GRID)
        assert len(batch) == 0
        assert batch.lo.shape == batch.hi.shape == (0, GRID.ndim)

    def test_batch_for_another_grid_rejected(self):
        batch = placement_batch(Grid((5, 6)), (2, 2))
        with pytest.raises(QueryError, match="does not match"):
            QueryBatch.of(batch, GRID)

    def test_wrong_dimension_queries_rejected(self):
        queries = [RangeQuery((0, 0), (1, 1)), RangeQuery((0,), (1,))]
        with pytest.raises(QueryError, match="does not match"):
            QueryBatch.of(queries, GRID)

    def test_converted_rows_meet_the_checked_invariant(self):
        batch = QueryBatch.of(_mixed_queries(40), GRID)
        checked = QueryBatch(batch.lo, batch.hi, batch.dims)
        np.testing.assert_array_equal(checked.lo, batch.lo)
        np.testing.assert_array_equal(checked.hi, batch.hi)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
class TestEntryPoints:
    @pytest.mark.parametrize("count", [5, BATCH_THRESHOLD + 7])
    def test_list_generator_and_batch_agree(self, context, name, count):
        call, _refusal = ENTRY_POINTS[name]
        queries = _mixed_queries(count, seed=count)
        batch = QueryBatch.from_queries(queries, GRID)
        from_list = call(context, queries, count)
        assert call(context, batch, count) == from_list
        assert call(context, iter(queries), count) == from_list

    def test_foreign_grid_batch_rejected(self, context, name):
        call, refusal = ENTRY_POINTS[name]
        batch = placement_batch(Grid((5, 6)), (2, 2))
        with pytest.raises(refusal, match="does not match"):
            call(context, batch, len(batch))

    def test_wrong_dimension_query_rejected(self, context, name):
        call, refusal = ENTRY_POINTS[name]
        with pytest.raises(refusal, match="does not match"):
            call(context, [RangeQuery((0,), (1,))], 1)


class TestSizeRule:
    @pytest.mark.parametrize("count", [1, BATCH_THRESHOLD - 1])
    def test_small_batches_match_the_scalar_oracle(self, context, count):
        queries = _mixed_queries(count, seed=7)
        allocation = context.allocation
        assert response_times(allocation, queries).tolist() == [
            response_time(allocation, q) for q in queries
        ]
        np.testing.assert_array_equal(
            batch_disk_counts(allocation, queries),
            np.array([buckets_per_disk(allocation, q) for q in queries]),
        )

    def test_small_batches_build_no_engine(self, context, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("engine built below the threshold")

        monkeypatch.setattr(ResponseTimeEngine, "__init__", refuse)
        batch = placement_batch(GRID, (3, 3))
        assert len(batch) < BATCH_THRESHOLD
        response_times(context.allocation, batch)
        batch_disk_counts(context.allocation, batch)


class TestEngineRule:
    """The engine-or-slices rule weighs rows against the table size."""

    @staticmethod
    def _batch(grid, count, seed=11):
        rng = np.random.default_rng(seed)
        dims = np.array(grid.dims)
        lo = rng.integers(0, dims, size=(count, grid.ndim))
        hi = np.minimum(lo + rng.integers(1, 9, size=lo.shape), dims)
        return QueryBatch(lo, hi, grid.dims)

    @staticmethod
    def _count_engines(monkeypatch):
        built = []
        original = ResponseTimeEngine.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ResponseTimeEngine, "__init__", counted)
        return built

    def test_threshold_grows_with_the_table(self):
        small = get_scheme("dm").allocate(Grid((6, 5)), 3)
        large = get_scheme("hcam").allocate(Grid((64, 64)), 16)
        assert engine_rows(small) == BATCH_THRESHOLD
        assert engine_rows(large) == (
            BATCH_THRESHOLD + 64 * 64 * 16 // ENGINE_ENTRIES_PER_ROW
        )

    def test_mid_size_batch_on_a_large_grid_is_sliced(self, monkeypatch):
        grid = Grid((64, 64))
        allocation = get_scheme("hcam").allocate(grid, 16)
        below = self._batch(grid, 64)
        above = self._batch(grid, engine_rows(allocation))
        want = [
            [response_time(allocation, q) for q in batch.iter_queries()]
            for batch in (below, above)
        ]
        built = self._count_engines(monkeypatch)
        assert response_times(allocation, below).tolist() == want[0]
        assert built == []
        assert response_times(allocation, above).tolist() == want[1]
        assert built == [1]
        np.testing.assert_array_equal(
            batch_disk_counts(allocation, below),
            np.array([buckets_per_disk(allocation, q)
                      for q in below.iter_queries()]),
        )
        assert built == [1]


def test_scheme_evaluator_converts_a_list_once(monkeypatch):
    original = QueryBatch.from_queries.__func__
    calls = []

    def counted(cls, queries, grid):
        calls.append(grid)
        return original(cls, queries, grid)

    monkeypatch.setattr(QueryBatch, "from_queries", classmethod(counted))
    queries = _mixed_queries(BATCH_THRESHOLD + 3)
    SchemeEvaluator(GRID, NUM_DISKS, ["dm", "hcam", "fx"]).evaluate_queries(
        queries
    )
    assert len(calls) == 1
