"""Unit tests for replicated allocations."""

import numpy as np
import pytest

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import AllocationError, SchemeError
from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.replication.allocation import (
    ReplicatedAllocation,
    chained_replication,
    orthogonal_replication,
)


#: (M, offset) pairs: residues 1, M // 2 and M - 1, each shifted by
#: -2M and +3M, for disk counts on both sides of uint8's 128 mark.
_WIDE_OFFSET_CASES = [
    (num_disks, residue + shift * num_disks)
    for num_disks in (2, 3, 8, 129, 255, 256)
    for residue in sorted({1, num_disks // 2, num_disks - 1})
    for shift in (-2, 3)
]


@pytest.fixture
def grid():
    return Grid((8, 8))


@pytest.fixture
def chained(grid):
    primary = get_scheme("dm").allocate(grid, 4)
    return chained_replication(primary)


class TestConstruction:
    def test_disks_of_returns_pair(self, chained):
        primary, backup = chained.disks_of((2, 3))
        assert primary != backup
        assert backup == (primary + 1) % 4

    def test_same_disk_copies_rejected(self, grid):
        primary = get_scheme("dm").allocate(grid, 4)
        with pytest.raises(AllocationError):
            ReplicatedAllocation(primary, primary)

    def test_grid_mismatch_rejected(self, grid):
        primary = get_scheme("dm").allocate(grid, 4)
        other = get_scheme("fx").allocate(Grid((4, 4)), 4)
        with pytest.raises(AllocationError):
            ReplicatedAllocation(primary, other)

    def test_disk_count_mismatch_rejected(self, grid):
        primary = get_scheme("dm").allocate(grid, 4)
        other = get_scheme("fx").allocate(grid, 8)
        with pytest.raises(AllocationError):
            ReplicatedAllocation(primary, other)

    def test_single_disk_replication_names_the_real_problem(self, grid):
        # With M = 1 every backup necessarily lands on the primary's
        # disk; the error must say "too few disks", not report a
        # per-bucket copy clash.
        primary = get_scheme("dm").allocate(grid, 1)
        backup = get_scheme("fx").allocate(grid, 1)
        with pytest.raises(AllocationError, match="at least 2 disks"):
            ReplicatedAllocation(primary, backup)


class TestChained:
    @pytest.mark.parametrize(
        "num_disks, offset", [(4, 3), (4, -1), (8, 300)]
    )
    def test_offset_applies_modulo(self, grid, num_disks, offset):
        primary = get_scheme("hcam").allocate(grid, num_disks)
        replicated = chained_replication(primary, offset=offset)
        assert np.array_equal(
            replicated.backup.table,
            (primary.table + offset % num_disks) % num_disks,
        )

    @pytest.mark.parametrize("num_disks, offset", _WIDE_OFFSET_CASES)
    def test_any_integer_offset_is_exact_up_to_256_disks(
        self, num_disks, offset
    ):
        # id + shift reaches 2M - 2, past uint8 once M > 128.
        primary = get_scheme("dm").allocate(Grid((num_disks, 2)), num_disks)
        assert primary.table.max() == num_disks - 1
        replicated = chained_replication(primary, offset=offset)
        expected = (primary.table.astype(np.int64) + offset) % num_disks
        assert np.array_equal(replicated.backup.table, expected)
        assert (replicated.backup.table != primary.table).all()

    @pytest.mark.parametrize("offset", [0, 4, -4, 400])
    def test_zero_offset_rejected(self, grid, offset):
        primary = get_scheme("dm").allocate(grid, 4)
        with pytest.raises(SchemeError):
            chained_replication(primary, offset=offset)

    def test_single_disk_rejected(self, grid):
        primary = get_scheme("dm").allocate(grid, 1)
        with pytest.raises(SchemeError):
            chained_replication(primary)

    def test_storage_doubles_and_stays_balanced(self, chained):
        total = chained.storage_per_disk()
        assert total.sum() == 2 * 64
        assert chained.is_storage_balanced()


class TestOrthogonal:
    def test_copies_disjoint_per_bucket(self, grid):
        replicated = orthogonal_replication(grid, 4, "dm", "hcam")
        assert not (
            replicated.primary.table == replicated.backup.table
        ).any()

    def test_primary_is_requested_scheme(self, grid):
        replicated = orthogonal_replication(grid, 4, "dm", "hcam")
        expected = get_scheme("dm").allocate(grid, 4)
        assert np.array_equal(replicated.primary.table, expected.table)

    def test_backup_mostly_follows_second_scheme(self, grid):
        replicated = orthogonal_replication(grid, 8, "dm", "hcam")
        reference = get_scheme("hcam").allocate(grid, 8)
        primary = get_scheme("dm").allocate(grid, 8)
        clash_rate = (primary.table == reference.table).mean()
        agreement = (
            replicated.backup.table == reference.table
        ).mean()
        # Exactly the clash buckets get bumped, nothing else.
        assert agreement == pytest.approx(1.0 - clash_rate)
        assert agreement > 0.5

    def test_single_disk_rejected(self, grid):
        with pytest.raises(SchemeError):
            orthogonal_replication(grid, 1)


class TestDegradedMode:
    def test_failed_disk_has_no_buckets(self, chained):
        survivor = chained.surviving_allocation(2)
        assert survivor.disk_loads()[2] == 0

    def test_all_buckets_still_stored(self, chained):
        survivor = chained.surviving_allocation(2)
        assert survivor.disk_loads().sum() == chained.grid.num_buckets

    def test_chained_failure_doubles_one_neighbour(self, chained):
        # Chained declustering's known property: disk d's load moves
        # entirely to disk (d + 1) mod M.
        survivor = chained.surviving_allocation(1)
        loads = survivor.disk_loads()
        assert loads[2] == 32  # its 16 plus the failed disk's 16
        assert loads[0] == 16 and loads[3] == 16

    def test_invalid_disk_rejected(self, chained):
        with pytest.raises(AllocationError):
            chained.surviving_allocation(9)
