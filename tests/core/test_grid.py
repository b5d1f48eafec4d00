"""Unit tests for :mod:`repro.core.grid`."""

import numpy as np
import pytest

from repro.core.exceptions import GridError
from repro.core.grid import Grid


class TestConstruction:
    def test_dims_are_normalized_to_ints(self):
        grid = Grid([np.int64(4), 8.0 and 8])
        assert grid.dims == (4, 8)
        assert all(isinstance(d, int) for d in grid.dims)

    def test_num_buckets_is_product(self):
        assert Grid((3, 5, 7)).num_buckets == 105

    def test_single_dimension(self):
        grid = Grid((6,))
        assert grid.ndim == 1
        assert grid.num_buckets == 6

    def test_extent_one_is_allowed(self):
        assert Grid((1, 4)).num_buckets == 4

    def test_empty_dims_rejected(self):
        with pytest.raises(GridError):
            Grid(())

    @pytest.mark.parametrize("bad", [(0, 4), (4, -1), (-3,)])
    def test_nonpositive_extent_rejected(self, bad):
        with pytest.raises(GridError):
            Grid(bad)

    def test_fractional_extent_rejected(self):
        with pytest.raises(GridError):
            Grid((4.5, 8))

    def test_integral_float_accepted(self):
        assert Grid((4.0, 8)).dims == (4, 8)


class TestIndexing:
    def test_linear_index_row_major(self):
        grid = Grid((3, 4))
        assert grid.linear_index((0, 0)) == 0
        assert grid.linear_index((0, 3)) == 3
        assert grid.linear_index((1, 0)) == 4
        assert grid.linear_index((2, 3)) == 11

    def test_coords_of_inverts_linear_index(self):
        grid = Grid((3, 4, 2))
        for coords in grid.iter_buckets():
            assert grid.coords_of(grid.linear_index(coords)) == coords

    def test_linear_index_out_of_grid_rejected(self):
        grid = Grid((3, 4))
        with pytest.raises(GridError):
            grid.linear_index((3, 0))

    def test_linear_index_wrong_arity_rejected(self):
        with pytest.raises(GridError):
            Grid((3, 4)).linear_index((1,))

    def test_coords_of_out_of_range_rejected(self):
        grid = Grid((2, 2))
        with pytest.raises(GridError):
            grid.coords_of(4)
        with pytest.raises(GridError):
            grid.coords_of(-1)


class TestMembership:
    def test_contains_checks_bounds(self):
        grid = Grid((2, 3))
        assert grid.contains((1, 2))
        assert not grid.contains((2, 0))
        assert not grid.contains((0, 3))
        assert not grid.contains((-1, 0))

    def test_contains_checks_arity(self):
        assert not Grid((2, 3)).contains((1,))

    def test_validate_coords_returns_tuple(self):
        coords = Grid((4, 4)).validate_coords([2, np.int64(3)])
        assert coords == (2, 3)
        assert isinstance(coords, tuple)


class TestIteration:
    def test_iter_buckets_count_and_order(self):
        grid = Grid((2, 3))
        buckets = list(grid.iter_buckets())
        assert len(buckets) == 6
        assert buckets[0] == (0, 0)
        assert buckets[1] == (0, 1)  # last axis fastest
        assert buckets[-1] == (1, 2)

    def test_iter_buckets_matches_linear_order(self):
        grid = Grid((3, 2, 2))
        for index, coords in enumerate(grid.iter_buckets()):
            assert grid.linear_index(coords) == index

    def test_coordinate_arrays_agree_with_iteration(self):
        grid = Grid((3, 4))
        vectors = grid.coordinate_arrays()
        assert [v.shape for v in vectors] == [(3, 1), (1, 4)]
        arrays = np.broadcast_arrays(*vectors)
        for coords in grid.iter_buckets():
            for axis in range(grid.ndim):
                assert arrays[axis][coords] == coords[axis]


class TestProperties:
    def test_is_hypercube(self):
        assert Grid((4, 4, 4)).is_hypercube()
        assert not Grid((4, 8)).is_hypercube()

    def test_bits_per_axis(self):
        assert Grid((1, 2, 3, 8, 9)).bits_per_axis() == (0, 1, 2, 3, 4)

    def test_equality_and_hash(self):
        assert Grid((2, 3)) == Grid((2, 3))
        assert Grid((2, 3)) != Grid((3, 2))
        assert hash(Grid((2, 3))) == hash(Grid((2, 3)))

    def test_repr_mentions_dims(self):
        assert "(2, 3)" in repr(Grid((2, 3)))
