"""Unit tests for DM/CMD and GDM."""

import numpy as np
import pytest

from repro.core.exceptions import SchemeError
from repro.core.grid import Grid
from repro.core.query import RangeQuery
from repro.core.cost import response_time
from repro.schemes.disk_modulo import (
    DiskModuloScheme,
    GeneralizedDiskModuloScheme,
)


class TestDiskModulo:
    def test_rule_matches_definition(self, grid_2d):
        scheme = DiskModuloScheme()
        for coords in grid_2d.iter_buckets():
            assert scheme.disk_of(coords, grid_2d, 5) == sum(coords) % 5

    def test_allocate_matches_disk_of(self, ragged_grid):
        scheme = DiskModuloScheme()
        allocation = scheme.allocate(ragged_grid, 7)
        for coords in ragged_grid.iter_buckets():
            assert allocation.disk_of(coords) == scheme.disk_of(
                coords, ragged_grid, 7
            )

    def test_three_dimensional(self, grid_3d):
        allocation = DiskModuloScheme().allocate(grid_3d, 3)
        assert allocation.disk_of((1, 2, 3)) == 0
        assert allocation.disk_of((0, 0, 1)) == 1

    def test_diagonal_stripes(self):
        # Anti-diagonals of a 2-d grid are constant-disk under DM.
        allocation = DiskModuloScheme().allocate(Grid((6, 6)), 6)
        for i in range(6):
            for j in range(6):
                assert allocation.disk_of((i, j)) == (i + j) % 6

    def test_storage_balanced_when_extent_divisible(self):
        # d_2 = M: every row cycles through all disks -> perfect balance.
        allocation = DiskModuloScheme().allocate(Grid((5, 4)), 4)
        assert allocation.is_storage_balanced()
        assert set(allocation.disk_loads().tolist()) == {5}

    def test_row_query_optimal(self):
        # 1 x j queries sweep consecutive residues: strictly optimal.
        allocation = DiskModuloScheme().allocate(Grid((8, 8)), 4)
        q = RangeQuery((3, 1), (3, 6))  # 1x6 row query
        assert response_time(allocation, q) == 2  # ceil(6/4)

    def test_small_square_pathology(self):
        # a x b with a+b-1 <= M: RT = min(a, b) regardless of optimum.
        allocation = DiskModuloScheme().allocate(Grid((16, 16)), 16)
        q = RangeQuery((2, 2), (4, 4))  # 3x3 square, 9 buckets, OPT 1
        assert response_time(allocation, q) == 3

    def test_nonpositive_disks_rejected(self, grid_2d):
        with pytest.raises(SchemeError):
            DiskModuloScheme().allocate(grid_2d, 0)


class TestGeneralizedDiskModulo:
    def test_default_coefficients_reduce_to_dm(self, grid_2d):
        gdm = GeneralizedDiskModuloScheme().allocate(grid_2d, 5)
        dm = DiskModuloScheme().allocate(grid_2d, 5)
        assert np.array_equal(gdm.table, dm.table)

    def test_explicit_coefficients(self, grid_2d):
        scheme = GeneralizedDiskModuloScheme((1, 2))
        allocation = scheme.allocate(grid_2d, 5)
        for coords in grid_2d.iter_buckets():
            assert allocation.disk_of(coords) == (
                coords[0] + 2 * coords[1]
            ) % 5

    def test_coefficients_property(self):
        assert GeneralizedDiskModuloScheme((3, 1)).coefficients == (3, 1)
        assert GeneralizedDiskModuloScheme().coefficients is None

    def test_coefficient_arity_mismatch_rejected(self, grid_3d):
        with pytest.raises(SchemeError):
            GeneralizedDiskModuloScheme((1, 2)).allocate(grid_3d, 4)

    def test_fibonacci_lattice_is_strictly_optimal_for_five_disks(self):
        # GDM(1, 2) mod 5 is the classical strictly optimal allocation.
        from repro.theory.optimality import verify_strict_optimality

        allocation = GeneralizedDiskModuloScheme((1, 2)).allocate(
            Grid((10, 10)), 5
        )
        assert verify_strict_optimality(allocation).strictly_optimal

    def test_disk_of_and_allocate_agree(self, ragged_grid):
        scheme = GeneralizedDiskModuloScheme((2, 3))
        allocation = scheme.allocate(ragged_grid, 6)
        for coords in ragged_grid.iter_buckets():
            assert allocation.disk_of(coords) == scheme.disk_of(
                coords, ragged_grid, 6
            )

    @pytest.mark.parametrize(
        "coefficients", [(2**62, 1), (1, -(2**62) - 5), (3**45, 2**63 + 7)]
    )
    def test_huge_coefficients_do_not_wrap(self, coefficients):
        """The whole-grid and slab rules equal ``disk_of`` (python ints)."""
        grid, num_disks = Grid((8, 8)), 3
        scheme = GeneralizedDiskModuloScheme(coefficients)
        expected = np.array(
            [scheme.disk_of(c, grid, num_disks) for c in grid.iter_buckets()]
        ).reshape(grid.dims)
        assert np.array_equal(scheme.disk_array(grid, num_disks), expected)
        assert np.array_equal(
            scheme.disk_array_block(grid, num_disks, 3, 7), expected[3:7]
        )

    def test_large_coefficient_bucket_regression(self):
        scheme = GeneralizedDiskModuloScheme((2**62, 1))
        grid = Grid((8, 8))
        assert scheme.disk_of((4, 0), grid, 3) == 1
        assert scheme.disk_array(grid, 3)[4, 0] == 1
        assert scheme.allocate(grid, 3).disk_of((4, 0)) == 1
