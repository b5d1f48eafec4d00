"""Cross-scheme invariants every declustering method must satisfy.

One parametrized suite over all registered schemes: whatever the rule,
the materialized allocation must be a valid, deterministic, total map, and
its costs must respect the universal bounds.
"""

import numpy as np
import pytest

from repro.core.cost import (
    optimal_response_time,
    response_time,
    sliding_response_times,
)
from repro.core.exceptions import SchemeNotApplicableError
from repro.core.grid import Grid
from repro.core.query import RangeQuery, all_placements
from repro.core.registry import available_schemes, get_scheme

#: (grid, disks) configurations with power-of-two everything so that every
#: scheme (including ECC) is applicable.
CONFIGS = [
    (Grid((8, 8)), 4),
    (Grid((8, 8)), 8),
    (Grid((16, 8)), 4),
    (Grid((4, 4, 4)), 8),
]

#: Configurations outside every scheme's sweet spot: a prime disk count on
#: sides it divides neither, more disks than any side holds, and a 3-d grid
#: with no power of two at all.  Schemes that declare such a configuration
#: not applicable skip; every other scheme must still meet the universal
#: invariants, which assume no divisibility.
AWKWARD_CONFIGS = [
    (Grid((5, 12)), 7),
    (Grid((3, 5)), 8),
    (Grid((6, 5, 3)), 5),
]


def all_scheme_names():
    return available_schemes()


@pytest.fixture(params=all_scheme_names())
def scheme_name(request):
    return request.param


def _allocate_or_skip(scheme_name, grid, num_disks):
    """Materialize, skipping configurations the scheme declares invalid.

    Not-applicable is a legitimate, tested behaviour (ECC on non-powers
    of two, cyclic beyond 2-d); the *universal* invariants only apply to
    allocations a scheme actually produces.
    """
    try:
        return get_scheme(scheme_name).allocate(grid, num_disks)
    except SchemeNotApplicableError as exc:
        pytest.skip(f"{scheme_name} not applicable: {exc}")


@pytest.mark.parametrize("grid,num_disks", CONFIGS + AWKWARD_CONFIGS)
class TestUniversalInvariants:
    def test_total_and_in_range(self, scheme_name, grid, num_disks):
        allocation = _allocate_or_skip(scheme_name, grid, num_disks)
        assert allocation.table.shape == grid.dims
        assert allocation.table.min() >= 0
        assert allocation.table.max() < num_disks

    def test_deterministic(self, scheme_name, grid, num_disks):
        a = _allocate_or_skip(scheme_name, grid, num_disks)
        b = _allocate_or_skip(scheme_name, grid, num_disks)
        assert np.array_equal(a.table, b.table)

    def test_response_time_at_least_optimal(
        self, scheme_name, grid, num_disks
    ):
        allocation = _allocate_or_skip(scheme_name, grid, num_disks)
        shape = tuple(min(3, d) for d in grid.dims)
        for query in all_placements(grid, shape):
            rt = response_time(allocation, query)
            assert rt >= optimal_response_time(
                query.num_buckets, num_disks
            )

    def test_response_time_at_most_query_size(
        self, scheme_name, grid, num_disks
    ):
        allocation = _allocate_or_skip(scheme_name, grid, num_disks)
        shape = tuple(min(4, d) for d in grid.dims)
        times = sliding_response_times(allocation, shape)
        area = int(np.prod(shape))
        assert times.max() <= area

    def test_full_grid_query_counts_every_bucket(
        self, scheme_name, grid, num_disks
    ):
        allocation = _allocate_or_skip(scheme_name, grid, num_disks)
        full = RangeQuery(
            (0,) * grid.ndim, tuple(d - 1 for d in grid.dims)
        )
        from repro.core.cost import buckets_per_disk

        counts = buckets_per_disk(allocation, full)
        assert counts.sum() == grid.num_buckets
        assert np.array_equal(counts, allocation.disk_loads())


class TestStorageBalance:
    """Balance guarantees, under each scheme's own domain conditions.

    HCAM (round-robin along a curve) and ECC (full-rank coset partition)
    are unconditionally balanced; DM needs some ``d_i mod M = 0`` and FX
    some field of width >= M — on the (4,4,4) x 8-disk configuration both
    conditions fail and both schemes are legitimately imbalanced.
    """

    @pytest.mark.parametrize("name", ["ecc", "hcam"])
    @pytest.mark.parametrize("grid,num_disks", CONFIGS)
    def test_unconditionally_balanced(self, name, grid, num_disks):
        allocation = get_scheme(name).allocate(grid, num_disks)
        assert allocation.is_storage_balanced()

    @pytest.mark.parametrize(
        "grid,num_disks",
        [cfg for cfg in CONFIGS
         if any(d % cfg[1] == 0 for d in cfg[0].dims)],
    )
    def test_dm_balanced_under_divisibility(self, grid, num_disks):
        allocation = get_scheme("dm").allocate(grid, num_disks)
        assert allocation.is_storage_balanced()

    @pytest.mark.parametrize(
        "grid,num_disks",
        [cfg for cfg in CONFIGS
         if any(d >= cfg[1] for d in cfg[0].dims)],
    )
    def test_fx_balanced_with_wide_field(self, grid, num_disks):
        allocation = get_scheme("fx").allocate(grid, num_disks)
        assert allocation.is_storage_balanced()

    def test_dm_imbalanced_without_divisibility(self):
        # Documents the conditionality: (4,4,4) x 8 disks breaks DM.
        allocation = get_scheme("dm").allocate(Grid((4, 4, 4)), 8)
        assert not allocation.is_storage_balanced()


@pytest.mark.parametrize("grid,num_disks", CONFIGS + AWKWARD_CONFIGS)
class TestVectorizedAllocation:
    """``disk_array`` (whole-grid kernel) must agree with ``disk_of``.

    The vectorized fast paths rebuild the mapping from index arithmetic;
    the scalar rule is the ground truth.
    """

    def test_disk_array_matches_disk_of(
        self, scheme_name, grid, num_disks
    ):
        scheme = get_scheme(scheme_name)
        try:
            scheme.check_applicable(grid, num_disks)
        except SchemeNotApplicableError as exc:
            pytest.skip(f"{scheme_name} not applicable: {exc}")
        coords_list = [tuple(c) for c in np.ndindex(*grid.dims)]
        table = scheme.disk_array(grid, num_disks)
        assert tuple(table.shape) == grid.dims
        assert int(table.min()) >= 0
        assert int(table.max()) < num_disks
        for coords in coords_list:
            assert int(table[coords]) == int(
                scheme.disk_of(coords, grid, num_disks)
            )

    def test_disk_array_matches_allocate(
        self, scheme_name, grid, num_disks
    ):
        scheme = get_scheme(scheme_name)
        try:
            allocation = scheme.allocate(grid, num_disks)
        except SchemeNotApplicableError as exc:
            pytest.skip(f"{scheme_name} not applicable: {exc}")
        table = scheme.disk_array(grid, num_disks)
        assert np.array_equal(table, allocation.table)


class TestSingleDisk:
    def test_one_disk_means_disk_zero(self, scheme_name):
        grid = Grid((4, 4))
        allocation = _allocate_or_skip(scheme_name, grid, 1)
        assert allocation.table.max() == 0

    def test_one_disk_rt_equals_query_size(self, scheme_name):
        grid = Grid((4, 4))
        allocation = _allocate_or_skip(scheme_name, grid, 1)
        q = RangeQuery((1, 1), (2, 3))
        assert response_time(allocation, q) == q.num_buckets


class TestNotApplicableSignalling:
    def test_ecc_rejects_cleanly(self):
        with pytest.raises(SchemeNotApplicableError):
            get_scheme("ecc").allocate(Grid((6, 6)), 4)

    def test_other_schemes_accept_awkward_configs(self):
        grid = Grid((5, 12))
        for name in ("dm", "fx", "exfx", "fx-auto", "hcam", "gdm",
                     "zorder", "gray", "random", "roundrobin"):
            allocation = get_scheme(name).allocate(grid, 7)
            assert allocation.table.shape == grid.dims
