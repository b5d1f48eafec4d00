"""The k-dimensional grid of buckets underlying a cartesian-product file.

A relation with ``k`` attributes is range-partitioned attribute by attribute:
attribute ``i`` is split into ``d_i`` intervals, so the data space becomes a
``d_1 x d_2 x ... x d_k`` grid.  Each cell of the grid is a *bucket* — the
unit of disk allocation.  A bucket is identified by its coordinate vector
``<i_1, ..., i_k>`` with ``0 <= i_j < d_j``.

This module is purely combinatorial: it knows nothing about attribute values
(see :mod:`repro.gridfile` for the record-level substrate) or disks (see
:mod:`repro.core.allocation`).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.core.exceptions import GridError

__all__ = [
    "Coords",
    "Grid",
]

Coords = Tuple[int, ...]


class Grid:
    """An immutable k-dimensional grid of buckets.

    Parameters
    ----------
    dims:
        Number of partitions per attribute, e.g. ``(32, 32)`` for the paper's
        default two-attribute database with 1024 buckets.  Every extent must
        be a positive integer.

    Examples
    --------
    >>> g = Grid((4, 8))
    >>> g.num_buckets
    32
    >>> g.linear_index((1, 2))
    10
    >>> g.coords_of(10)
    (1, 2)
    """

    __slots__ = ("_dims", "_strides", "_num_buckets")

    def __init__(self, dims: Sequence[int]):
        original = tuple(dims)
        dims = tuple(int(d) for d in original)
        if any(d != o for d, o in zip(dims, original)):
            raise GridError(
                f"grid extents must be integral, got {original}"
            )
        if not dims:
            raise GridError("a grid needs at least one dimension")
        if any(d <= 0 for d in dims):
            raise GridError(f"all grid extents must be positive, got {dims}")
        self._dims = dims
        # Row-major strides: the last coordinate varies fastest.
        strides = [1] * len(dims)
        for axis in range(len(dims) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * dims[axis + 1]
        self._strides = tuple(strides)
        num_buckets = 1
        for d in dims:
            num_buckets *= d
        self._num_buckets = num_buckets

    @property
    def dims(self) -> Coords:
        """Partition counts per attribute, ``(d_1, ..., d_k)``."""
        return self._dims

    @property
    def ndim(self) -> int:
        """Number of attributes ``k``."""
        return len(self._dims)

    @property
    def num_buckets(self) -> int:
        """Total bucket count ``d_1 * ... * d_k``."""
        return self._num_buckets

    def contains(self, coords: Sequence[int]) -> bool:
        """Return whether ``coords`` names a bucket of this grid."""
        if len(coords) != self.ndim:
            return False
        return all(0 <= c < d for c, d in zip(coords, self._dims))

    def validate_coords(self, coords: Sequence[int]) -> Coords:
        """Return ``coords`` as a tuple, raising :class:`GridError` if invalid."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ndim:
            raise GridError(
                f"expected {self.ndim} coordinates, got {len(coords)}: {coords}"
            )
        if not self.contains(coords):
            raise GridError(f"coordinates {coords} outside grid {self._dims}")
        return coords

    def linear_index(self, coords: Sequence[int]) -> int:
        """Row-major linear index of a bucket (last axis fastest)."""
        coords = self.validate_coords(coords)
        return sum(c * s for c, s in zip(coords, self._strides))

    def coords_of(self, index: int) -> Coords:
        """Inverse of :meth:`linear_index`."""
        index = int(index)
        if not 0 <= index < self._num_buckets:
            raise GridError(
                f"linear index {index} outside [0, {self._num_buckets})"
            )
        coords = []
        for stride in self._strides:
            coords.append(index // stride)
            index %= stride
        return tuple(coords)

    def iter_buckets(self) -> Iterator[Coords]:
        """Yield every bucket coordinate in row-major order."""
        return itertools.product(*(range(d) for d in self._dims))

    def coordinate_arrays(self) -> Tuple[np.ndarray, ...]:
        """Open per-axis coordinate vectors that broadcast to the grid.

        ``coordinate_arrays()[j]`` holds ``0 .. d_j - 1`` along axis ``j``
        and has length 1 on every other axis, so that after broadcasting
        ``[i_1, ..., i_k] -> i_j`` — the vectorized counterpart of
        :meth:`iter_buckets`, used by schemes to compute a whole
        allocation table in one shot.  Arithmetic on the vectors stays
        ``O(sum d_j)`` until the final broadcast into the table.
        """
        return tuple(np.indices(self._dims, dtype=np.int64, sparse=True))

    def is_hypercube(self) -> bool:
        """Whether every attribute has the same number of partitions."""
        return len(set(self._dims)) == 1

    def bits_per_axis(self) -> Tuple[int, ...]:
        """Minimum bits needed to represent each coordinate, ``ceil(log2 d_i)``.

        An extent of 1 needs 0 bits (the coordinate is always 0).
        """
        return tuple(max(d - 1, 0).bit_length() for d in self._dims)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grid) and other._dims == self._dims

    def __hash__(self) -> int:
        return hash(self._dims)

    def __repr__(self) -> str:
        return f"Grid(dims={self._dims})"
