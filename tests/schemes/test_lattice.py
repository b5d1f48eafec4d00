"""Unit tests for the k-dimensional lattice scheme."""

import pytest

from repro.core.cost import average_response_time
from repro.core.exceptions import SchemeError
from repro.core.grid import Grid
from repro.schemes.cyclic import exhaustive_coefficients
from repro.schemes.disk_modulo import GeneralizedDiskModuloScheme
from repro.schemes.lattice import LatticeScheme, power_coefficients


class TestCoefficientSelection:
    def test_power_starts_with_one(self):
        coefficients = power_coefficients(3, 16)
        assert coefficients[0] == 1
        assert len(coefficients) == 3

    def test_power_coefficients_coprime(self):
        import math

        for num_disks in (4, 8, 15, 16):
            for c in power_coefficients(4, num_disks):
                assert math.gcd(c, num_disks) == 1

    def test_single_disk_all_zero(self):
        assert power_coefficients(3, 1) == (0, 0, 0)

    def test_invalid_ndim_rejected(self):
        with pytest.raises(SchemeError):
            power_coefficients(0, 4)

    def test_exhaustive_beats_or_ties_power_on_target(self):
        grid = Grid((8, 8, 8))
        num_disks = 8

        def score(coefficients):
            allocation = GeneralizedDiskModuloScheme(
                coefficients
            ).allocate(grid, num_disks)
            return average_response_time(
                allocation, (2, 2, 2)
            ) + average_response_time(allocation, (3, 3, 3))

        exh = exhaustive_coefficients(grid, num_disks)
        power = power_coefficients(3, num_disks)
        assert score(exh) <= score(power) + 1e-9


class TestLatticeScheme:
    @pytest.mark.parametrize("policy", ["power", "exh"])
    def test_rule_matches_definition(self, policy):
        grid = Grid((6, 6, 6))
        scheme = LatticeScheme(policy)
        c = scheme.coefficients_for(grid, 7)
        allocation = scheme.allocate(grid, 7)
        for coords in grid.iter_buckets():
            expected = (
                c[0] * coords[0] + c[1] * coords[1] + c[2] * coords[2]
            ) % 7
            assert allocation.disk_of(coords) == expected

    def test_3d_exhaustive_beats_dm_on_small_cubes(self):
        grid = Grid((8, 8, 8))
        from repro.schemes.disk_modulo import DiskModuloScheme

        lattice = LatticeScheme(policy="exh").allocate(grid, 8)
        dm = DiskModuloScheme().allocate(grid, 8)
        assert average_response_time(
            lattice, (2, 2, 2)
        ) < average_response_time(dm, (2, 2, 2))

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchemeError):
            LatticeScheme(policy="wild")

    def test_storage_balanced_on_square_grids(self):
        for num_disks in (4, 8, 16):
            allocation = LatticeScheme().allocate(
                Grid((16, 16, 16)), num_disks
            )
            assert allocation.is_storage_balanced()

    def test_disk_of_matches_allocate(self):
        grid = Grid((4, 5, 6))
        scheme = LatticeScheme()
        allocation = scheme.allocate(grid, 7)
        for coords in grid.iter_buckets():
            assert allocation.disk_of(coords) == scheme.disk_of(
                coords, grid, 7
            )

    def test_single_disk(self):
        allocation = LatticeScheme().allocate(Grid((4, 4, 4)), 1)
        assert allocation.table.max() == 0

    def test_registry_names(self):
        from repro.core.registry import get_scheme

        assert isinstance(get_scheme("lattice"), LatticeScheme)
        assert get_scheme("lattice-exh").policy == "exh"
