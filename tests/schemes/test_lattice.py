"""Unit tests for the k-dimensional lattice scheme."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.cost import average_response_time
from repro.core.exceptions import SchemeError
from repro.core.grid import Grid
from repro.schemes.cyclic import CyclicScheme, coprime_skips
from repro.schemes.lattice import (
    LatticeScheme,
    exhaustive_coefficients,
    power_coefficients,
)


def _brute_force_pick(dims, num_disks):
    """The lattice search re-derived bucket by bucket, in exact fractions."""
    skips = coprime_skips(num_disks)
    shapes = [tuple(min(side, d) for d in dims) for side in (2, 3)]
    best, best_cost = None, None
    for tail in itertools.product(skips, repeat=len(dims) - 1):
        coefficients = (1,) + tail
        table = np.zeros(dims, dtype=np.int64)
        for bucket in itertools.product(*(range(d) for d in dims)):
            table[bucket] = sum(
                c * i for c, i in zip(coefficients, bucket)
            ) % num_disks
        cost = Fraction(0)
        for shape in shapes:
            origins = list(
                itertools.product(
                    *(range(d - s + 1) for d, s in zip(dims, shape))
                )
            )
            total = 0
            for origin in origins:
                box = tuple(
                    slice(o, o + s) for o, s in zip(origin, shape)
                )
                total += int(
                    np.bincount(
                        table[box].ravel(), minlength=num_disks
                    ).max()
                )
            cost += Fraction(total, len(origins))
        if best_cost is None or cost < best_cost:
            best, best_cost = coefficients, cost
    return best


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
            allocation = LatticeScheme(
                coefficients=coefficients
            ).allocate(grid, num_disks)
            return average_response_time(
                allocation, (2, 2, 2)
            ) + average_response_time(allocation, (3, 3, 3))

        exh = exhaustive_coefficients(grid, num_disks)
        power = power_coefficients(3, num_disks)
        assert score(exh) <= score(power) + 1e-9


    @pytest.mark.parametrize(
        "dims, num_disks",
        [
            ((6, 6), 5),
            ((8, 5), 7),
            ((9, 4), 8),
            ((7, 7), 12),
            ((4, 4, 4), 5),
            ((5, 4, 3), 4),
            ((4, 3, 5), 6),
        ],
    )
    def test_exhaustive_pick_matches_exact_brute_force(
        self, dims, num_disks
    ):
        assert exhaustive_coefficients(
            Grid(dims), num_disks
        ) == _brute_force_pick(dims, num_disks)


class TestLatticeScheme:
    def test_rule_matches_definition(self):
        grid = Grid((6, 6, 6))
        scheme = LatticeScheme(coefficients=(1, 2, 3))
        allocation = scheme.allocate(grid, 7)
        for coords in grid.iter_buckets():
            expected = (
                coords[0] + 2 * coords[1] + 3 * coords[2]
            ) % 7
            assert allocation.disk_of(coords) == expected

    def test_2d_exhaustive_matches_cyclic_quality(self):
        grid = Grid((16, 16))
        num_disks = 8
        lattice = LatticeScheme(policy="exh").allocate(grid, num_disks)
        cyclic = CyclicScheme(policy="exh").allocate(grid, num_disks)
        for shape in [(2, 2), (3, 3)]:
            assert average_response_time(
                lattice, shape
            ) == pytest.approx(average_response_time(cyclic, shape))

    def test_3d_exhaustive_beats_dm_on_small_cubes(self):
        grid = Grid((8, 8, 8))
        from repro.schemes.disk_modulo import DiskModuloScheme

        lattice = LatticeScheme(policy="exh").allocate(grid, 8)
        dm = DiskModuloScheme().allocate(grid, 8)
        assert average_response_time(
            lattice, (2, 2, 2)
        ) < average_response_time(dm, (2, 2, 2))

    def test_non_coprime_explicit_coefficients_rejected(self):
        with pytest.raises(SchemeError):
            LatticeScheme(coefficients=(1, 4)).allocate(Grid((8, 8)), 8)

    def test_coefficient_arity_mismatch_rejected(self):
        with pytest.raises(SchemeError):
            LatticeScheme(coefficients=(1, 2)).allocate(
                Grid((4, 4, 4)), 5
            )

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
