"""Abstract base class shared by all declustering schemes.

A scheme is a *rule* for mapping bucket coordinates to disk ids.  It is
stateless with respect to any particular grid: calling
:meth:`DeclusteringScheme.allocate` materializes the rule over a grid into a
:class:`~repro.core.allocation.DiskAllocation` that the cost model evaluates.

Subclasses implement :meth:`disk_of` (per-bucket rule; always the reference
oracle) and, when the rule has a whole-grid array form, override
:meth:`disk_array` — the vectorized kernel :meth:`allocate` materializes
tables from.  The base :meth:`disk_array` falls back to the scalar
``disk_of`` loop, so a per-bucket rule alone is always enough.  Schemes
with preconditions (e.g. ECC needs ``M`` to be a power of two) raise
:class:`SchemeNotApplicableError` from :meth:`check_applicable`.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import SchemeError
from repro.core.grid import Grid

__all__ = ["DeclusteringScheme", "block_coordinate_arrays"]


def block_coordinate_arrays(
    grid: Grid, start: int, stop: int
) -> List[np.ndarray]:
    """Coordinate vectors for the row-slab ``start:stop`` along axis 0.

    Same contract as ``grid.coordinate_arrays()`` (open vectors that
    broadcast to the slab's shape) restricted to buckets whose first
    coordinate lies in ``[start, stop)`` — axis-0 values are the
    *absolute* coordinates, so scheme rules evaluate unchanged on the
    slab.  This is what lets the chunked SAT builder materialize a
    beyond-RAM grid one slab at a time.
    """
    shape = (stop - start,) + grid.dims[1:]
    coords = list(np.indices(shape, dtype=np.int64, sparse=True))
    coords[0] += start
    return coords


class DeclusteringScheme(abc.ABC):
    """Base class for bucket-to-disk declustering rules.

    Attributes
    ----------
    name:
        Short identifier used in the registry, reports, and plots
        (e.g. ``"dm"``, ``"fx"``, ``"ecc"``, ``"hcam"``).
    """

    #: Registry identifier; subclasses must override.
    name: str = ""

    def check_applicable(self, grid: Grid, num_disks: int) -> None:
        """Raise :class:`SchemeNotApplicableError` if preconditions fail.

        The default accepts any positive disk count.
        """
        if num_disks <= 0:
            raise SchemeError(
                f"number of disks must be positive, got {num_disks}"
            )

    @abc.abstractmethod
    def disk_of(self, coords: Sequence[int], grid: Grid, num_disks: int) -> int:
        """Disk id for the bucket at ``coords`` (the scheme's defining rule)."""

    def disk_array(self, grid: Grid, num_disks: int) -> np.ndarray:
        """Disk id of *every* bucket as a grid-shaped integer array.

        Subclasses with a whole-grid form override this with vectorized
        ``np.indices``/``coordinate_arrays`` arithmetic; the base
        implementation is the scalar fallback — one ``disk_of`` call per
        bucket.  The QA contract checker (QA43x) asserts the two agree
        bucket for bucket for every registered scheme.
        """
        table = np.empty(grid.dims, dtype=np.int64)
        for coords in grid.iter_buckets():
            table[coords] = self.disk_of(coords, grid, num_disks)  # qa704: allow — scalar fallback by contract; fast schemes override disk_array
        return table

    def disk_array_block(
        self, grid: Grid, num_disks: int, start: int, stop: int
    ) -> np.ndarray:
        """Disk ids for buckets with first coordinate in ``[start, stop)``.

        Output shape ``(stop - start, d_2, ..., d_k)``.  The chunked SAT
        builder (:meth:`repro.core.sat.SummedAreaTable.build_chunked`)
        calls this slab by slab so a beyond-RAM grid never materializes
        whole.  The base implementation slices the full
        :meth:`disk_array` — correct for every scheme but not
        memory-bounded; schemes meant for beyond-RAM grids override it
        with :func:`block_coordinate_arrays` arithmetic.
        """
        if not 0 <= start <= stop <= grid.dims[0]:
            raise SchemeError(
                f"block [{start}, {stop}) outside axis-0 extent "
                f"{grid.dims[0]}"
            )
        return self.disk_array(grid, num_disks)[start:stop]

    def allocate(self, grid: Grid, num_disks: int) -> DiskAllocation:
        """Materialize the rule over ``grid`` into a full allocation table."""
        self.check_applicable(grid, num_disks)
        return DiskAllocation(
            grid, num_disks, self.disk_array(grid, num_disks)
        )

    def describe(self) -> str:
        """One-line human description (docstring first line by default)."""
        doc = (self.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
