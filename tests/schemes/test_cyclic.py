"""Unit tests for cyclic (lattice) declustering."""

import math

import numpy as np
import pytest

from repro.core.cost import average_response_time
from repro.core.exceptions import SchemeError, SchemeNotApplicableError
from repro.core.grid import Grid
from repro.schemes.cyclic import (
    CyclicScheme,
    coprime_skips,
    gfib_skip,
    rphm_skip,
)
from repro.schemes.disk_modulo import (
    DiskModuloScheme,
    GeneralizedDiskModuloScheme,
)


class TestSkipSelection:
    def test_coprime_skips(self):
        assert coprime_skips(8) == [1, 3, 5, 7]
        assert coprime_skips(7) == [1, 2, 3, 4, 5, 6]
        assert coprime_skips(1) == [0]

    def test_coprime_skips_invalid(self):
        with pytest.raises(SchemeError):
            coprime_skips(0)

    @pytest.mark.parametrize("num_disks", [2, 3, 5, 8, 13, 16, 25])
    def test_rphm_is_coprime(self, num_disks):
        skip = rphm_skip(num_disks)
        if num_disks > 1:
            assert math.gcd(skip, num_disks) == 1

    def test_rphm_avoids_degenerate_skips_when_possible(self):
        # For M = 16 the golden-section point is ~9.9: skip must not be
        # the DM-like 1 or 15.
        assert rphm_skip(16) not in (1, 15)

    @pytest.mark.parametrize("num_disks", [2, 3, 5, 8, 13, 16, 25])
    def test_gfib_is_coprime(self, num_disks):
        skip = gfib_skip(num_disks)
        if num_disks > 1:
            assert math.gcd(skip, num_disks) == 1

    def test_gfib_uses_fibonacci(self):
        assert gfib_skip(16) == 13
        assert gfib_skip(21) == 13  # F=13 < 21 and gcd(13,21)=1

    def test_exh_skip_is_best_on_target(self):
        grid = Grid((16, 16))
        num_disks = 8
        best_alloc = CyclicScheme(policy="exh").allocate(grid, num_disks)
        best_cost = average_response_time(
            best_alloc, (2, 2)
        ) + average_response_time(best_alloc, (3, 3))
        for skip in coprime_skips(num_disks):
            alloc = GeneralizedDiskModuloScheme((1, skip)).allocate(
                grid, num_disks
            )
            cost = average_response_time(
                alloc, (2, 2)
            ) + average_response_time(alloc, (3, 3))
            assert best_cost <= cost + 1e-9


class TestCyclicScheme:
    @pytest.mark.parametrize("policy", ["rphm", "gfib", "exh"])
    def test_rule_matches_definition(self, policy):
        grid = Grid((8, 8))
        scheme = CyclicScheme(policy=policy)
        skip = scheme.skip_for(grid, 8)
        allocation = scheme.allocate(grid, 8)
        for coords in grid.iter_buckets():
            assert allocation.disk_of(coords) == (
                coords[0] + skip * coords[1]
            ) % 8

    def test_skip_one_is_dm(self):
        grid = Grid((8, 8))
        cyclic = GeneralizedDiskModuloScheme((1, 1)).allocate(grid, 5)
        dm = DiskModuloScheme().allocate(grid, 5)
        assert np.array_equal(cyclic.table, dm.table)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchemeError):
            CyclicScheme(policy="magic")

    def test_three_dimensional_rejected(self):
        with pytest.raises(SchemeNotApplicableError):
            CyclicScheme().allocate(Grid((4, 4, 4)), 4)

    def test_storage_balanced(self):
        for policy in ("rphm", "gfib", "exh"):
            allocation = CyclicScheme(policy=policy).allocate(
                Grid((16, 16)), 8
            )
            assert allocation.is_storage_balanced()

    def test_disk_of_matches_allocate(self):
        grid = Grid((6, 9))
        scheme = CyclicScheme(policy="gfib")
        allocation = scheme.allocate(grid, 7)
        for coords in grid.iter_buckets():
            assert allocation.disk_of(coords) == scheme.disk_of(
                coords, grid, 7
            )

    def test_single_disk(self):
        allocation = CyclicScheme().allocate(Grid((4, 4)), 1)
        assert allocation.table.max() == 0


class TestCyclicBeatsPaperMethodsOnSmallQueries:
    """The historical postscript: cyclic successors dominate on 1994's
    weak spot."""

    def test_exh_optimal_on_small_squares_m16(self):
        grid = Grid((32, 32))
        allocation = CyclicScheme(policy="exh").allocate(grid, 16)
        assert average_response_time(allocation, (2, 2)) == 1.0
        assert average_response_time(allocation, (3, 3)) == 1.0

    def test_gfib_beats_dm_everywhere_small(self):
        grid = Grid((32, 32))
        for num_disks in (8, 16, 32):
            gfib = CyclicScheme(policy="gfib").allocate(grid, num_disks)
            dm = DiskModuloScheme().allocate(grid, num_disks)
            for shape in [(2, 2), (3, 3)]:
                assert average_response_time(
                    gfib, shape
                ) <= average_response_time(dm, shape)

    def test_five_disk_lattice_rediscovered(self):
        # For M = 5 the exhaustive policy lands on a strictly optimal
        # lattice (skip 2 or its mirror 3).
        from repro.theory.optimality import verify_strict_optimality

        grid = Grid((10, 10))
        allocation = CyclicScheme(policy="exh").allocate(grid, 5)
        assert verify_strict_optimality(allocation).strictly_optimal
