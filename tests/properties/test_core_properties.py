"""Property-based tests (hypothesis) for the core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import DiskAllocation
from repro.core.backends import available_backends
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.cost import (
    optimal_response_time,
    response_time,
    sliding_response_times,
)
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery, query_at, shapes_with_area
from repro.core.sat import SummedAreaTable

dims_2d = st.tuples(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
)


@st.composite
def grid_and_query(draw):
    dims = draw(dims_2d)
    grid = Grid(dims)
    lower = tuple(draw(st.integers(0, d - 1)) for d in dims)
    upper = tuple(
        draw(st.integers(lo, d - 1)) for lo, d in zip(lower, dims)
    )
    return grid, RangeQuery(lower, upper)


@st.composite
def random_allocation(draw):
    dims = draw(dims_2d)
    grid = Grid(dims)
    num_disks = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    table = rng.integers(0, num_disks, size=dims)
    return DiskAllocation(grid, num_disks, table)


class TestGridProperties:
    @given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=4))
    def test_linear_index_bijective(self, dims):
        grid = Grid(dims)
        indices = {
            grid.linear_index(coords) for coords in grid.iter_buckets()
        }
        assert indices == set(range(grid.num_buckets))

    @given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           index=st.integers(0, 10**6))
    def test_coords_round_trip(self, dims, index):
        grid = Grid(dims)
        index %= grid.num_buckets
        assert grid.linear_index(grid.coords_of(index)) == index


class TestQueryProperties:
    @given(gq=grid_and_query())
    def test_num_buckets_matches_enumeration(self, gq):
        _, query = gq
        assert query.num_buckets == sum(1 for _ in query.iter_buckets())

    @given(gq=grid_and_query())
    def test_every_enumerated_bucket_is_contained(self, gq):
        grid, query = gq
        for bucket in query.iter_buckets():
            assert query.contains_bucket(bucket)
            assert grid.contains(bucket)

    @given(a=grid_and_query(), data=st.data())
    def test_intersection_commutative_and_contained(self, a, data):
        grid, q1 = a
        lower = tuple(
            data.draw(st.integers(0, d - 1)) for d in grid.dims
        )
        upper = tuple(
            data.draw(st.integers(lo, d - 1))
            for lo, d in zip(lower, grid.dims)
        )
        q2 = RangeQuery(lower, upper)
        left = q1.intersect(q2)
        right = q2.intersect(q1)
        assert left == right
        if left is not None:
            assert left.num_buckets <= min(
                q1.num_buckets, q2.num_buckets
            )

    @given(dims=dims_2d, area=st.integers(1, 40))
    def test_shapes_with_area_have_exact_area(self, dims, area):
        grid = Grid(dims)
        for shape in shapes_with_area(grid, area):
            product = 1
            for side in shape:
                product *= side
            assert product == area
            assert all(s <= d for s, d in zip(shape, grid.dims))


class TestCostProperties:
    @given(allocation=random_allocation(), data=st.data())
    def test_rt_bounded_by_optimal_and_size(self, allocation, data):
        dims = allocation.grid.dims
        lower = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
        upper = tuple(
            data.draw(st.integers(lo, d - 1))
            for lo, d in zip(lower, dims)
        )
        query = RangeQuery(lower, upper)
        rt = response_time(allocation, query)
        opt = optimal_response_time(
            query.num_buckets, allocation.num_disks
        )
        assert opt <= rt <= query.num_buckets

    @given(allocation=random_allocation())
    def test_relabeling_preserves_all_costs(self, allocation):
        rng = np.random.default_rng(0)
        permutation = rng.permutation(allocation.num_disks)
        relabeled = allocation.relabeled(permutation)
        shape = tuple(min(2, d) for d in allocation.grid.dims)
        assert np.array_equal(
            sliding_response_times(allocation, shape),
            sliding_response_times(relabeled, shape),
        )

    @given(allocation=random_allocation(), data=st.data())
    @settings(max_examples=40)
    def test_sliding_windows_match_direct_evaluation(
        self, allocation, data
    ):
        dims = allocation.grid.dims
        shape = tuple(data.draw(st.integers(1, d)) for d in dims)
        times = sliding_response_times(allocation, shape)
        if times.size == 0:
            return
        origin = tuple(
            data.draw(st.integers(0, d - s))
            for d, s in zip(dims, shape)
        )
        assert times[origin] == response_time(
            allocation, query_at(origin, shape)
        )

    @given(allocation=random_allocation())
    def test_monotonicity_in_query_growth(self, allocation):
        # Growing a query can never lower its response time.
        dims = allocation.grid.dims
        small = query_at((0,) * len(dims), tuple(max(1, d // 2) for d in dims))
        large = query_at((0,) * len(dims), dims)
        assert response_time(allocation, large) >= response_time(
            allocation, small
        )


INT64_MAX = 2**63 - 1


@st.composite
def inclusive_bounds(draw):
    """Grid extents plus ``0 <= lower <= upper`` rows that may overhang
    the grid, lie wholly outside it, or reach up to ``2**63 - 1``."""
    ndim = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    count = draw(st.integers(0, 8))
    lower = [
        [draw(st.integers(0, d + 3)) for d in dims] for _ in range(count)
    ]
    upper = [
        [
            draw(
                st.one_of(
                    st.integers(lo, lo + d + 3),
                    st.integers(lo, INT64_MAX),
                    st.just(INT64_MAX),
                )
            )
            for lo, d in zip(row, dims)
        ]
        for row in lower
    ]
    shape = (count, ndim)
    return (
        np.array(lower, dtype=np.int64).reshape(shape),
        np.array(upper, dtype=np.int64).reshape(shape),
        dims,
    )


class TestQueryBatchClip:
    @settings(max_examples=200, deadline=None)
    @given(inclusive_bounds())
    def test_clip_output_is_what_the_checked_constructor_accepts(
        self, bounds
    ):
        lower, upper, dims = bounds
        clipped = QueryBatch.clip(lower, upper, dims)
        checked = QueryBatch(clipped.lo, clipped.hi, dims)
        pairs = ((clipped.lo, checked.lo), (clipped.hi, checked.hi))
        for ours, theirs in pairs:
            assert ours.dtype == theirs.dtype == np.int64
            assert ours.flags.c_contiguous
            np.testing.assert_array_equal(ours, theirs)
        assert clipped.dims == checked.dims

    @settings(max_examples=200, deadline=None)
    @given(inclusive_bounds())
    def test_clip_matches_each_row_clipped_to_the_grid(self, bounds):
        lower, upper, dims = bounds
        clipped = QueryBatch.clip(lower, upper, dims)
        grid = Grid(dims)
        for row, (lo, up) in enumerate(zip(lower.tolist(), upper.tolist())):
            inside = RangeQuery(lo, up).clip_to(grid)
            sides = (clipped.hi[row] - clipped.lo[row]).tolist()
            if inside is None:
                assert 0 in sides
            else:
                assert clipped.lo[row].tolist() == list(inside.lower)
                assert sides == list(inside.side_lengths)

    @settings(max_examples=100, deadline=None)
    @given(inclusive_bounds(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_wire_call_answers_the_clipped_batch_on_every_backend(
        self, bounds, num_disks, seed
    ):
        lower, upper, dims = bounds
        table = np.random.default_rng(seed).integers(
            0, num_disks, size=dims
        )
        sat = SummedAreaTable.build(
            DiskAllocation(Grid(dims), num_disks, table)
        )
        clipped = QueryBatch.clip(lower, upper, dims)
        want = NumpyBackend().batch_response_times(
            sat, clipped.lo, clipped.hi
        )
        wire = np.stack([lower, upper])
        for backend in available_backends():
            out = np.empty(len(lower), dtype=np.int64)
            backend.wire_response_times(sat, wire, out)
            np.testing.assert_array_equal(out, want, err_msg=backend.name)
