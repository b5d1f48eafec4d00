"""Property-style sweeps: the integral-image engine and the one-shot
sweep == brute force on randomized grids, shapes, and disk counts, plus
cache-correctness properties (hits identical, eviction bounded)."""

import numpy as np
import pytest

from repro.core.allocation import DiskAllocation
from repro.core.cache import AllocationCache
from repro.core.cost import (
    optimal_response_time,
    response_time,
    sliding_response_times,
)
from repro.core.engine import ResponseTimeEngine
from repro.core.evaluator import SchemeEvaluator
from repro.core.grid import Grid
from repro.core.query import RangeQuery, all_placements
from repro.core.registry import PAPER_SCHEMES


def _random_cases(seed: int, count: int):
    """Deterministic stream of (allocation, shapes) sample cases."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ndim = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 7)) for _ in range(ndim))
        grid = Grid(dims)
        num_disks = int(rng.integers(2, 8))
        table = rng.integers(0, num_disks, size=dims)
        allocation = DiskAllocation(grid, num_disks, table)
        shapes = [
            tuple(int(rng.integers(1, d + 1)) for d in dims)
            for _ in range(4)
        ]
        yield allocation, shapes


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_engine_and_one_shot_sweep_equal_brute_force(self, seed):
        for allocation, shapes in _random_cases(seed, count=8):
            engine = ResponseTimeEngine(allocation)
            for shape in shapes:
                new = engine.sliding_response_times(shape)
                one_shot = sliding_response_times(allocation, shape)
                for times in (new, one_shot):
                    for query in all_placements(allocation.grid, shape):
                        assert times[tuple(query.lower)] == response_time(
                            allocation, query
                        ), (allocation.grid.dims, allocation.num_disks, shape)

    def test_full_grid_shape_counts_every_bucket(self):
        for allocation, _ in _random_cases(99, count=5):
            engine = ResponseTimeEngine(allocation)
            whole = RangeQuery(
                (0,) * allocation.grid.ndim,
                tuple(d - 1 for d in allocation.grid.dims),
            )
            counts = engine.batch_disk_counts([whole])
            assert counts.sum() == allocation.grid.num_buckets
            assert np.array_equal(
                counts.reshape(allocation.num_disks),
                allocation.disk_loads(),
            )

    def test_paper_schemes_match_brute_force_on_paper_grid(self):
        grid = Grid((16, 16))
        evaluator = SchemeEvaluator(
            grid, 8, PAPER_SCHEMES, cache=AllocationCache()
        )
        shapes = [(1, 1), (2, 2), (4, 1), (3, 5), (16, 16)]
        for result in evaluator.evaluate_shapes(shapes):
            allocation = evaluator.allocation(result.scheme)
            times = [
                response_time(allocation, query)
                for shape in shapes
                for query in all_placements(grid, shape)
            ]
            optima = [
                optimal_response_time(int(np.prod(shape)), 8)
                for shape in shapes
                for _ in all_placements(grid, shape)
            ]
            assert result.num_queries == len(times)
            assert result.mean_response_time == float(np.mean(times))
            assert result.mean_optimal == float(np.mean(optima))
            assert result.worst_response_time == max(times)
            assert result.fraction_optimal == float(
                np.mean(np.array(times) == np.array(optima))
            )


class TestCacheProperties:
    def test_hits_return_the_materialized_allocation(self):
        cache = AllocationCache(maxsize=16)
        rng = np.random.default_rng(11)
        grid = Grid((8, 8))
        for _ in range(30):
            scheme = str(rng.choice(["dm", "fx", "ecc", "hcam"]))
            disks = int(rng.choice([2, 4, 8]))
            cached = cache.allocation(scheme, grid, disks)
            again = cache.allocation(scheme, grid, disks)
            assert again is cached
            assert np.array_equal(
                cached.table,
                AllocationCache(maxsize=1)
                .allocation(scheme, grid, disks)
                .table,
            )

    def test_eviction_never_exceeds_bound(self):
        for maxsize in (1, 2, 5):
            cache = AllocationCache(maxsize=maxsize)
            grid = Grid((8, 8))
            for disks in (2, 3, 4, 5, 6, 7, 8):
                cache.allocation("dm", grid, disks)
                assert len(cache) <= maxsize
            stats = cache.stats()
            assert stats.entries <= maxsize
            assert stats.misses == 7
            assert stats.evictions == max(0, 7 - maxsize)

    def test_evicted_entries_rematerialize_identically(self):
        cache = AllocationCache(maxsize=1)
        grid = Grid((8, 8))
        first = cache.allocation("hcam", grid, 4)
        cache.allocation("hcam", grid, 8)  # evicts the M=4 entry
        again = cache.allocation("hcam", grid, 4)
        assert again is not first
        assert again == first
