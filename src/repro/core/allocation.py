"""Materialized bucket-to-disk allocations.

A :class:`DiskAllocation` is the output of a declustering scheme: a table
assigning every bucket of a :class:`~repro.core.grid.Grid` to one of ``M``
disks.  The table is stored as a numpy array shaped like the grid, which
makes response-time evaluation a slice + bincount (see
:mod:`repro.core.cost`).

The paper considers only non-replicated allocations — each bucket lives on
exactly one disk — and so does this class.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.exceptions import AllocationError
from repro.core.grid import Coords, Grid

__all__ = [
    "DiskAllocation",
    "allocation_from_function",
    "table_dtype",
]


def table_dtype(num_disks: int) -> np.dtype:
    """Smallest unsigned dtype that can hold disk ids ``0 .. M-1``.

    ``uint8`` covers every configuration the paper evaluates (M <= 256);
    the compact dtype is what makes allocation tables cheap to cache.
    Raises
    :class:`~repro.core.exceptions.AllocationError` for non-positive M
    and for M whose largest disk id would not even fit in ``uint64`` —
    silently falling off the dtype ladder would wrap ids and corrupt the
    table.
    """
    if num_disks <= 0:
        raise AllocationError(
            f"number of disks must be positive, got {num_disks}"
        )
    for candidate in (np.uint8, np.uint16, np.uint32, np.uint64):
        if num_disks - 1 <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    raise AllocationError(
        f"number of disks {num_disks} is not representable: the largest "
        f"disk id {num_disks - 1} exceeds uint64 "
        f"({np.iinfo(np.uint64).max})"
    )


class DiskAllocation:
    """An assignment of every grid bucket to one of ``num_disks`` disks.

    Parameters
    ----------
    grid:
        The bucket grid being declustered.
    num_disks:
        ``M``, the number of disks.  Disk ids are ``0 .. M-1``.
    table:
        Integer array of shape ``grid.dims`` holding the disk id per bucket.

    Examples
    --------
    >>> import numpy as np
    >>> g = Grid((2, 2))
    >>> a = DiskAllocation(g, 2, np.array([[0, 1], [1, 0]]))
    >>> a.disk_of((1, 0))
    1
    >>> a.disk_loads().tolist()
    [2, 2]
    """

    __slots__ = ("_grid", "_num_disks", "_table")

    def __init__(self, grid: Grid, num_disks: int, table: np.ndarray):
        num_disks = int(num_disks)
        if num_disks <= 0:
            raise AllocationError(
                f"number of disks must be positive, got {num_disks}"
            )
        table = np.asarray(table)
        if table.shape != grid.dims:
            raise AllocationError(
                f"table shape {table.shape} does not match grid {grid.dims}"
            )
        if not np.issubdtype(table.dtype, np.integer):
            raise AllocationError(
                f"table must hold integer disk ids, got dtype {table.dtype}"
            )
        if table.size and (table.min() < 0 or table.max() >= num_disks):
            raise AllocationError(
                "table contains disk ids outside "
                f"[0, {num_disks}): min={table.min()} max={table.max()}"
            )
        self._grid = grid
        self._num_disks = num_disks
        # Private copy (always — never alias the caller's array) in the
        # smallest sufficient unsigned dtype; the table is immutable from
        # here.
        table = np.array(
            table, dtype=table_dtype(num_disks), copy=True, order="C"
        )
        table.setflags(write=False)
        self._table = table

    @property
    def grid(self) -> Grid:
        """The grid this allocation covers."""
        return self._grid

    @property
    def num_disks(self) -> int:
        """``M``, the number of disks."""
        return self._num_disks

    @property
    def table(self) -> np.ndarray:
        """The (read-only) disk-id array, shaped like the grid."""
        return self._table

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table, in bytes (compact dtype)."""
        return int(self._table.nbytes)

    def disk_of(self, coords: Sequence[int]) -> int:
        """Disk id holding the bucket at ``coords``."""
        coords = self._grid.validate_coords(coords)
        return int(self._table[coords])

    def disk_loads(self) -> np.ndarray:
        """Buckets stored per disk, ``shape (M,)``.

        A good declustering keeps these within one of each other — storage
        balance is a prerequisite for, but far weaker than, query-time
        balance.
        """
        return np.bincount(self._table.ravel(), minlength=self._num_disks)

    def is_storage_balanced(self) -> bool:
        """Whether per-disk bucket counts differ by at most one."""
        loads = self.disk_loads()
        return int(loads.max() - loads.min()) <= 1

    def disks_used(self) -> int:
        """Number of distinct disks that received at least one bucket."""
        return int(np.count_nonzero(self.disk_loads()))

    def buckets_on_disk(self, disk: int) -> list:
        """Coordinates of all buckets stored on ``disk``, row-major order."""
        disk = int(disk)
        if not 0 <= disk < self._num_disks:
            raise AllocationError(
                f"disk id {disk} outside [0, {self._num_disks})"
            )
        coords_arrays = np.nonzero(self._table == disk)
        return [tuple(int(c[i]) for c in coords_arrays)
                for i in range(len(coords_arrays[0]))]

    def as_mapping(self) -> Dict[Coords, int]:
        """The allocation as a plain ``{coords: disk}`` dict (small grids)."""
        return {
            coords: int(self._table[coords])
            for coords in self._grid.iter_buckets()
        }

    def relabeled(self, permutation: Sequence[int]) -> "DiskAllocation":
        """A copy with disk ids renamed through ``permutation``.

        Response times are invariant under disk relabeling; this is used by
        the theory module for canonicalization and in tests.
        """
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (self._num_disks,):
            raise AllocationError(
                f"permutation must have length {self._num_disks}"
            )
        if sorted(permutation.tolist()) != list(range(self._num_disks)):
            raise AllocationError(
                f"not a permutation of 0..{self._num_disks - 1}: "
                f"{permutation.tolist()}"
            )
        return DiskAllocation(
            self._grid, self._num_disks, permutation[self._table]
        )

    def canonicalized(self) -> "DiskAllocation":
        """A copy with disk labels renamed in first-use (row-major) order.

        Response times are invariant under relabeling, so two allocations
        are *equivalent* iff their canonical forms are equal — the form
        the theory module's enumeration produces.  Unused disk ids keep
        distinct labels after all used ones.
        """
        mapping: Dict[int, int] = {}
        flat = self._table.ravel()
        for disk in flat:
            disk = int(disk)
            if disk not in mapping:
                mapping[disk] = len(mapping)
        permutation = np.empty(self._num_disks, dtype=np.int64)
        next_label = len(mapping)
        for disk in range(self._num_disks):
            if disk in mapping:
                permutation[disk] = mapping[disk]
            else:
                permutation[disk] = next_label
                next_label += 1
        return self.relabeled(permutation)

    def is_equivalent_to(self, other: "DiskAllocation") -> bool:
        """Whether the two allocations differ only by disk relabeling."""
        return (
            self._grid == other._grid
            and self._num_disks == other._num_disks
            and np.array_equal(
                self.canonicalized().table,
                other.canonicalized().table,
            )
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiskAllocation)
            and other._grid == self._grid
            and other._num_disks == self._num_disks
            and np.array_equal(other._table, self._table)
        )

    def __hash__(self) -> int:
        return hash(
            (self._grid, self._num_disks, self._table.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"DiskAllocation(grid={self._grid.dims}, "
            f"num_disks={self._num_disks})"
        )


def allocation_from_function(grid: Grid, num_disks: int, disk_of) -> DiskAllocation:
    """Materialize an allocation from a per-bucket function.

    ``disk_of`` receives a coordinate tuple and returns a disk id.  Schemes
    with no vectorized form use this helper; it is also handy in tests.
    """
    table = np.empty(grid.dims, dtype=np.int64)
    for coords in grid.iter_buckets():
        table[coords] = disk_of(coords)
    return DiskAllocation(grid, num_disks, table)
