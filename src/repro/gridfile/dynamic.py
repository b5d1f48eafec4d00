"""A dynamic grid file: capacity-driven splits under a declustering scheme.

The static :class:`~repro.gridfile.file.DeclusteredGridFile` assumes the
partitioning is fixed up front.  Real grid files (Nievergelt et al.)
*grow*: when a bucket overflows its capacity, one axis gains a new
boundary and the whole slab of buckets sharing that interval splits in
two.  This module implements that dynamics and keeps the file declustered
throughout, which surfaces a question the paper's static setting hides:

    when the grid refines, how much of the existing placement does a
    declustering method invalidate?

Every structural change re-derives the bucket-to-disk map from the scheme
and counts **migrations** — data volume whose disk changed — exposed via
:meth:`DynamicGridFile.stats`.  Methods whose rule depends on coordinates
*relative to the whole grid* (DM's sums shift when an early boundary is
inserted; HCAM's curve ranks cascade) migrate much more than the 1994
literature acknowledged; the ``X6`` experiment measures it.

Splitting policy (classic grid file):

* the overflowing bucket's longest-relative axis is split (ties: the
  lower axis index);
* the new boundary is the **median** of the overflowing bucket's values
  on that axis (falling back to the interval midpoint when the median
  would duplicate a boundary);
* the split applies to the whole grid slab, keeping the directory a
  cartesian product, exactly like the original grid file.

Records live in two growing ``(n, k)`` arrays — attribute values and
bucket coordinates — next to a grid-shaped occupancy count, so a split
re-buckets its slab and prices its migrations in a few whole-array
operations.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import GridFileError
from repro.core.grid import Grid
from repro.core.query import RangeQuery
from repro.core.registry import get_scheme
from repro.gridfile.file import QueryExecution
from repro.gridfile.partitioner import RangePartitioner

__all__ = ["DynamicGridFile"]


class DynamicGridFile:
    """An insert-driven, declustered grid file.

    Parameters
    ----------
    domains:
        Per-attribute ``(low, high)`` value bounds.
    num_disks:
        Disks to decluster over.
    scheme:
        Registry name of the declustering method re-applied after splits.
    bucket_capacity:
        Records a bucket holds before triggering a split.
    """

    def __init__(
        self,
        domains: Sequence[Tuple[float, float]],
        num_disks: int,
        scheme: str = "hcam",
        bucket_capacity: int = 32,
    ):
        if not domains:
            raise GridFileError("need at least one attribute domain")
        if bucket_capacity <= 0:
            raise GridFileError(
                f"bucket capacity must be positive, got {bucket_capacity}"
            )
        for low, high in domains:
            if low >= high:
                raise GridFileError(f"empty domain [{low}, {high}]")
        self._domains = [(float(lo), float(hi)) for lo, hi in domains]
        self._boundaries: List[List[float]] = [
            [lo, hi] for lo, hi in self._domains
        ]
        self._num_disks = int(num_disks)
        self._scheme_name = scheme
        self._capacity = int(bucket_capacity)
        k = len(self._domains)
        self._values = np.empty((0, k), dtype=np.float64)
        self._coords = np.empty((0, k), dtype=np.int64)
        self._occupancy = np.zeros((1,) * k, dtype=np.int64)
        self._num_records = 0
        self._num_splits = 0
        self._buckets_migrated = 0
        self._records_migrated = 0
        self._allocation = self._allocate()

    # -- structure ---------------------------------------------------

    @property
    def grid(self) -> Grid:
        """The current bucket grid."""
        return Grid(
            tuple(len(b) - 1 for b in self._boundaries)
        )

    @property
    def allocation(self):
        """The current bucket-to-disk map."""
        return self._allocation

    @property
    def num_disks(self) -> int:
        """Number of disks."""
        return self._num_disks

    @property
    def num_records(self) -> int:
        """Records stored."""
        return self._num_records

    def partitioners(self) -> List[RangePartitioner]:
        """Current per-axis partitioners (fresh objects)."""
        return [RangePartitioner(b) for b in self._boundaries]

    def stats(self) -> Dict[str, int]:
        """Growth and migration counters.

        ``buckets_migrated`` / ``records_migrated`` accumulate, over all
        splits, how many (old-bucket equivalent) buckets and records
        changed disks when the scheme was re-applied to the refined grid
        — the re-placement cost a real system would pay as data movement.
        """
        return {
            "num_records": self._num_records,
            "num_buckets": self.grid.num_buckets,
            "num_splits": self._num_splits,
            "buckets_migrated": self._buckets_migrated,
            "records_migrated": self._records_migrated,
        }

    # -- record operations --------------------------------------------

    def bucket_of(self, record: Sequence[float]) -> Tuple[int, ...]:
        """Bucket coordinates for a record's attribute values."""
        return self._locate(self._check_record(record).tolist())

    def insert(self, record: Sequence[float]) -> Tuple[int, ...]:
        """Insert a record, splitting as needed; returns its bucket."""
        record = self._check_record(record)
        self._reserve(1)
        self._values[self._num_records] = record
        return self._append(record.tolist())

    def insert_many(self, records) -> None:
        """Insert records from an iterable / ``(n, k)`` array.

        The batch is validated up front; rows before the first invalid
        one are inserted, then that row raises :meth:`insert`'s error.
        """
        batch = np.asarray(records, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != len(self._domains):
            if len(batch):
                self._check_record(batch[0])
            return
        low, high = np.array(self._domains, dtype=np.float64).T
        bad = np.flatnonzero(~((batch >= low) & (batch <= high)).all(1))
        stop = int(bad[0]) if bad.size else len(batch)
        self._reserve(stop)
        start = self._num_records
        self._values[start : start + stop] = batch[:stop]
        for record in batch[:stop].tolist():
            self._append(record)
        if stop < len(batch):
            self._check_record(batch[stop])

    def bucket_occupancy(self) -> np.ndarray:
        """Records per bucket, shaped like the current grid."""
        return self._occupancy.copy()

    def records_per_disk(self) -> np.ndarray:
        """Records per disk under the current allocation."""
        coords = tuple(self._coords[: self._num_records].T)
        return np.bincount(
            self._allocation.table[coords], minlength=self._num_disks
        )

    # -- queries -------------------------------------------------------

    def range_query(
        self, value_ranges: Sequence[Tuple[float, float]]
    ) -> RangeQuery:
        """Translate value intervals into a bucket range query."""
        if len(value_ranges) != len(self._boundaries):
            raise GridFileError(
                f"{len(value_ranges)} ranges for "
                f"{len(self._boundaries)} attributes"
            )
        lower = []
        upper = []
        for partitioner, (low, high) in zip(
            self.partitioners(), value_ranges
        ):
            first, last = partitioner.partition_range(low, high)
            lower.append(first)
            upper.append(last)
        return RangeQuery(tuple(lower), tuple(upper))

    def execute(self, query: RangeQuery) -> QueryExecution:
        """Cost a bucket query against the current allocation."""
        from repro.core.cost import buckets_per_disk

        counts = buckets_per_disk(self._allocation, query)
        return QueryExecution(
            query=query,
            buckets_per_disk=counts,
            num_disks=self._num_disks,
        )

    # -- internals ------------------------------------------------------

    def _check_record(self, record) -> np.ndarray:
        record = np.asarray(record, dtype=np.float64)
        if record.shape != (len(self._boundaries),):
            raise GridFileError(
                f"record has shape {record.shape}, file has "
                f"{len(self._boundaries)} attributes"
            )
        for axis, value in enumerate(record):
            low, high = self._domains[axis]
            if not low <= value <= high:
                raise GridFileError(
                    f"attribute {axis} value {value} outside domain "
                    f"[{low}, {high}]"
                )
        return record

    def _locate(self, record: List[float]) -> Tuple[int, ...]:
        """Bucket of an in-domain record: right-side search, top clamp."""
        return tuple(
            min(bisect_right(bounds, value) - 1, len(bounds) - 2)
            for bounds, value in zip(self._boundaries, record)
        )

    def _reserve(self, count: int) -> None:
        """Grow the record arrays to hold ``count`` more rows."""
        needed = self._num_records + count
        if needed > len(self._values):
            extra = max(needed, 2 * len(self._values)) - len(self._values)
            pad = ((0, extra), (0, 0))
            self._values = np.pad(self._values, pad)
            self._coords = np.pad(self._coords, pad)

    def _append(self, record: List[float]) -> Tuple[int, ...]:
        """Bucket the record just written to ``_values``; split on overflow."""
        coords = self._locate(record)
        row = self._num_records
        self._coords[row] = coords
        self._num_records = row + 1
        self._occupancy[coords] += 1
        while self._occupancy[coords] > self._capacity:
            if not self._split(coords):
                break  # unsplittable (duplicate values); allow overflow
            coords = tuple(self._coords[row].tolist())
        return coords

    def _allocate(self):
        return get_scheme(self._scheme_name).allocate(
            self.grid, self._num_disks
        )

    def _choose_split_axis(self, coords: Tuple[int, ...]) -> int:
        relative = []
        for axis, c in enumerate(coords):
            boundaries = self._boundaries[axis]
            width = boundaries[c + 1] - boundaries[c]
            domain = self._domains[axis][1] - self._domains[axis][0]
            relative.append(width / domain)
        return int(np.argmax(relative))

    def _split(self, coords: Tuple[int, ...]) -> bool:  # qa7: hot
        """Insert a boundary through the overflowing bucket's slab.

        Re-buckets every record, re-applies the scheme and counts the
        migrations in value space: a record moved iff the disk under its
        old bucket differs from the disk under its new one, and a new
        bucket moved iff the old disk under its centre differs.
        """
        axis = self._choose_split_axis(coords)
        boundaries = self._boundaries[axis]
        cell = coords[axis]
        low, high = boundaries[cell], boundaries[cell + 1]
        values: np.ndarray = self._values[: self._num_records]
        rows: np.ndarray = self._coords[: self._num_records]
        members: np.ndarray = values[(rows == coords).all(axis=1), axis]
        cut = float(np.median(members))  # the bucket overflowed: non-empty
        if not low < cut < high:
            cut = (low + high) / 2.0
        if not low < cut < high:
            return False  # interval too narrow to split further
        old_table: np.ndarray = self._allocation.table
        old_disks = old_table[tuple(rows.T)]
        old_edges = np.asarray(boundaries, dtype=np.float64)
        boundaries.insert(cell + 1, cut)
        self._num_splits += 1
        column = rows[:, axis]
        column += (column > cell) | (
            (column == cell) & (values[:, axis] >= cut)
        )
        dims = self.grid.dims
        index = tuple(rows.T)
        self._occupancy = np.bincount(
            np.ravel_multi_index(index, dims),
            minlength=int(np.prod(dims)),
        ).reshape(dims)
        self._allocation = self._allocate()
        new_table: np.ndarray = self._allocation.table
        self._records_migrated += int(
            np.count_nonzero(old_disks != new_table[index])
        )
        # Each new bucket's centre, located under the old boundaries
        # (only the split axis changed).
        under_old = []
        for a, bounds in enumerate(self._boundaries):
            edges = np.asarray(bounds, dtype=np.float64)
            prior = old_edges if a == axis else edges
            centres = (edges[:-1] + edges[1:]) / 2
            cells = np.searchsorted(prior, centres, side="right") - 1
            under_old.append(np.clip(cells, 0, len(prior) - 2))
        self._buckets_migrated += int(
            np.count_nonzero(old_table[np.ix_(*under_old)] != new_table)
        )
        return True
