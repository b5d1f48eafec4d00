"""Property-based tests for the extension subsystems.

Covers cyclic schemes, replication planning, and serialization
round-trips under randomized configurations.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import (
    optimal_response_time,
    response_time,
    sliding_response_times,
)
from repro.core.grid import Grid
from repro.core.query import query_at
from repro.core.registry import get_scheme
from repro.io import allocation_from_dict, allocation_to_dict
from repro.replication import (
    chained_replication,
    plan_query,
    replicated_response_time,
)
from repro.schemes.cyclic import (
    CyclicScheme,
    coprime_skips,
    exhaustive_coefficients,
)
from repro.schemes.disk_modulo import GeneralizedDiskModuloScheme


class TestCyclicProperties:
    @given(
        side=st.integers(3, 12),
        num_disks=st.integers(2, 12),
        policy=st.sampled_from(["rphm", "gfib"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_valid_balanced_lattice(self, side, num_disks, policy):
        grid = Grid((side, side))
        allocation = CyclicScheme(policy=policy).allocate(
            grid, num_disks
        )
        assert allocation.table.min() >= 0
        assert allocation.table.max() < num_disks
        # Lattice rows are cyclic shifts, so a d-divisible... every row
        # uses consecutive residues: balance within one always holds on
        # square grids of side >= M or follows row-wise otherwise.
        loads = allocation.disk_loads()
        assert loads.sum() == grid.num_buckets

    @given(num_disks=st.integers(2, 30), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_coprime_skip_touches_all_disks(self, num_disks, data):
        skip = data.draw(st.sampled_from(coprime_skips(num_disks)))
        grid = Grid((num_disks, num_disks))
        allocation = GeneralizedDiskModuloScheme((1, skip)).allocate(
            grid, num_disks
        )
        assert allocation.disks_used() == num_disks
        assert allocation.is_storage_balanced()

    @given(num_disks=st.integers(2, 16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_queries_always_optimal(self, num_disks, data):
        # Any cyclic lattice inherits DM's row-query optimality: a 1 x j
        # query sweeps j consecutive multiples of H, which are j distinct
        # disks while j <= M (gcd(H, M) = 1).
        skip = data.draw(st.sampled_from(coprime_skips(num_disks)))
        side = max(num_disks, 4)
        grid = Grid((side, side))
        allocation = GeneralizedDiskModuloScheme((1, skip)).allocate(
            grid, num_disks
        )
        width = data.draw(st.integers(1, min(num_disks, side)))
        row = data.draw(st.integers(0, side - 1))
        col = data.draw(st.integers(0, side - width))
        query = query_at((row, col), (1, width))
        assert response_time(allocation, query) == 1

    @given(
        dims=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        num_disks=st.integers(1, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_exh_skip_matches_sliding_mean_search(
        self, dims, num_disks
    ):
        # Oracle: score every coprime skip by its exact mean RT over
        # *all* placements of each shape, from the full sliding-window
        # array; ties keep the smaller skip.
        grid = Grid(dims)
        targets = [tuple(min(s, d) for d in dims) for s in (2, 3)]
        best_skip, best_cost = None, None
        for skip in coprime_skips(num_disks):
            allocation = GeneralizedDiskModuloScheme((1, skip)).allocate(
                grid, num_disks
            )
            cost = Fraction(0)
            for shape in targets:
                times = sliding_response_times(allocation, shape)
                assert (times == times.flat[0]).all()
                cost += Fraction(int(times.sum()), times.size)
            if best_cost is None or cost < best_cost:
                best_skip, best_cost = skip, cost
        assert exhaustive_coefficients(grid, num_disks)[1] == best_skip


class TestReplicationProperties:
    @given(
        num_disks=st.integers(2, 8),
        offset=st.integers(1, 7),
        origin=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_planned_rt_within_bounds(
        self, num_disks, offset, origin, shape
    ):
        if offset % num_disks == 0:
            offset = 1
        grid = Grid((8, 8))
        replicated = chained_replication(
            get_scheme("dm").allocate(grid, num_disks), offset=offset
        )
        query = query_at(origin, shape)
        if not query.fits_in(grid):
            return
        rt = replicated_response_time(replicated, query, "flow")
        assert rt >= optimal_response_time(
            query.num_buckets, num_disks
        )
        assert rt <= response_time(replicated.primary, query)

    @given(
        num_disks=st.integers(2, 6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_plan_assignment_consistent(self, num_disks, seed):
        rng = np.random.default_rng(seed)
        grid = Grid((8, 8))
        replicated = chained_replication(
            get_scheme("hcam").allocate(grid, num_disks)
        )
        origin = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        plan = plan_query(replicated, query_at(origin, shape), "flow")
        assert plan.loads.sum() == plan.num_buckets
        for coords, disk in plan.assignment.items():
            assert disk in replicated.disks_of(coords)


class TestSerializationProperties:
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        num_disks=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_allocation_dict_round_trip(self, dims, num_disks, seed):
        from repro.core.allocation import DiskAllocation

        rng = np.random.default_rng(seed)
        grid = Grid(dims)
        allocation = DiskAllocation(
            grid, num_disks, rng.integers(0, num_disks, size=dims)
        )
        assert allocation_from_dict(
            allocation_to_dict(allocation)
        ) == allocation
