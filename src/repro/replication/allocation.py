"""Replicated declustering: every bucket on a primary and a backup disk.

The paper explicitly scopes replication out: "no corresponding data
replication approaches have been proposed for data declustering.  Thus, we
do not consider techniques where a data subspace can be assigned to more
than one disk."  This package is that future work: two-copy declustering
in the style of chained declustering (Hsiao & DeWitt), where the second
copy both survives a disk failure *and* gives the query planner a choice
of disk per bucket — the "power of two choices" that pushes response
times toward the optimum.

Construction styles:

* **chained** — backup disk = (primary + offset) mod M, offset coprime to
  M (offset 1 is classical chained declustering).  Cheap and failure-safe:
  losing disk ``d`` moves its load to the neighbours.
* **orthogonal** — the backup copy uses a *different* declustering scheme,
  so the two copies' weaknesses do not line up (e.g. DM primaries with
  HCAM backups: row queries lean on the primary, squares on the backup).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import AllocationError, SchemeError
from repro.core.grid import Grid

__all__ = [
    "ReplicatedAllocation",
    "chained_replication",
    "orthogonal_replication",
]


class ReplicatedAllocation:
    """Two complete copies of the grid, on distinct disks per bucket.

    Parameters
    ----------
    primary / backup:
        :class:`DiskAllocation` objects over the same grid and disk count.
        For every bucket the two disks must differ (otherwise the copy
        adds neither availability nor choice).
    """

    __slots__ = ("_primary", "_backup")

    def __init__(self, primary: DiskAllocation, backup: DiskAllocation):
        if primary.grid != backup.grid:
            raise AllocationError(
                f"copies cover different grids: {primary.grid.dims} "
                f"vs {backup.grid.dims}"
            )
        if primary.num_disks != backup.num_disks:
            raise AllocationError(
                f"copies use different disk counts: "
                f"{primary.num_disks} vs {backup.num_disks}"
            )
        if primary.num_disks < 2:
            # With one disk a backup could never differ from the primary;
            # fail with the real reason instead of a per-bucket clash.
            raise AllocationError(
                "replication needs at least 2 disks, got "
                f"{primary.num_disks}"
            )
        clashes = primary.table == backup.table
        if clashes.any():
            where = tuple(
                int(c[0]) for c in np.nonzero(clashes)
            )
            raise AllocationError(
                "primary and backup share a disk for bucket at index "
                f"{where}; copies must be disjoint per bucket"
            )
        self._primary = primary
        self._backup = backup

    @property
    def grid(self) -> Grid:
        """The replicated grid."""
        return self._primary.grid

    @property
    def num_disks(self) -> int:
        """``M``, the number of disks."""
        return self._primary.num_disks

    @property
    def primary(self) -> DiskAllocation:
        """The primary copy's allocation."""
        return self._primary

    @property
    def backup(self) -> DiskAllocation:
        """The backup copy's allocation."""
        return self._backup

    def disks_of(self, coords: Sequence[int]) -> Tuple[int, int]:
        """The (primary, backup) disk pair holding a bucket."""
        return (
            self._primary.disk_of(coords),
            self._backup.disk_of(coords),
        )

    def storage_per_disk(self) -> np.ndarray:
        """Total bucket copies per disk (both replicas counted)."""
        return self._primary.disk_loads() + self._backup.disk_loads()

    def is_storage_balanced(self) -> bool:
        """Whether total copies per disk differ by at most one."""
        loads = self.storage_per_disk()
        return int(loads.max() - loads.min()) <= 1

    def surviving_allocation(self, failed_disk: int) -> DiskAllocation:
        """The single-copy allocation in force after ``failed_disk`` dies.

        Every bucket whose primary lived on the failed disk is served by
        its backup, and vice versa; buckets touching neither keep their
        primary.  The result is a plain allocation usable with the whole
        cost/analysis stack (degraded-mode performance).
        """
        failed_disk = int(failed_disk)
        if not 0 <= failed_disk < self.num_disks:
            raise AllocationError(
                f"disk id {failed_disk} outside [0, {self.num_disks})"
            )
        table = np.where(
            self._primary.table == failed_disk,
            self._backup.table,
            self._primary.table,
        )
        return DiskAllocation(self.grid, self.num_disks, table)

    def __repr__(self) -> str:
        return (
            f"ReplicatedAllocation(grid={self.grid.dims}, "
            f"num_disks={self.num_disks})"
        )


def chained_replication(
    primary: DiskAllocation, offset: int = 1
) -> ReplicatedAllocation:
    """Backup = (primary + offset) mod M — classical chained declustering.

    ``offset`` may be any integer (negative, or past the table's compact
    dtype); only its residue mod M matters.
    """
    offset = int(offset)
    num_disks = primary.num_disks
    if num_disks < 2:
        raise SchemeError(
            "replication needs at least 2 disks, got "
            f"{num_disks}"
        )
    shift = offset % num_disks
    if shift == 0:
        raise SchemeError(
            f"offset {offset} maps copies to the same disk (mod "
            f"{num_disks})"
        )
    # Summed in int64: id + shift reaches 2M - 2, past uint8 for M > 128.
    backup = DiskAllocation(
        primary.grid,
        num_disks,
        np.add(primary.table, shift, dtype=np.int64) % num_disks,
    )
    return ReplicatedAllocation(primary, backup)


def orthogonal_replication(
    grid: Grid,
    num_disks: int,
    primary_scheme: str = "dm",
    backup_scheme: str = "hcam",
) -> ReplicatedAllocation:
    """Two different schemes as the two copies.

    Buckets where the two schemes happen to agree get their backup bumped
    to the next disk (cyclically), preserving the disjointness invariant
    while keeping the backup close to the second scheme's layout.
    """
    from repro.core.registry import get_scheme

    if num_disks < 2:
        raise SchemeError(
            f"replication needs at least 2 disks, got {num_disks}"
        )
    primary = get_scheme(primary_scheme).allocate(grid, num_disks)
    backup_raw = get_scheme(backup_scheme).allocate(grid, num_disks)
    backup_table = backup_raw.table.copy()
    clash = backup_table == primary.table
    backup_table[clash] = (backup_table[clash] + 1) % num_disks
    backup = DiskAllocation(grid, num_disks, backup_table)
    return ReplicatedAllocation(primary, backup)
