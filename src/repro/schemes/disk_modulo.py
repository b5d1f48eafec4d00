"""The linear-modulo family: DM / CMD, GDM, and its base rule.

* **DM** (Du & Sobolewski, TODS 1982) assigns bucket ``<i_1, ..., i_k>`` to
  disk ``(i_1 + i_2 + ... + i_k) mod M``.  **CMD** (Li, Srivastava & Rotem,
  VLDB 1992) uses the same bucket-level rule — the paper evaluates them as a
  single method, "DM/CMD".
* **GDM** (Du, BIT 1986) generalizes to ``(c_1 i_1 + ... + c_k i_k) mod M``
  for fixed integer coefficients ``c_j``; DM is the all-ones special case.

Every linear scheme — DM, GDM, and the cyclic and lattice policies of
:mod:`repro.schemes.cyclic` and :mod:`repro.schemes.lattice` — is a
:class:`LinearModScheme`: it only chooses the coefficient vector, and the
base evaluates the one rule per bucket, over the whole grid and over a
row slab.

DM is strictly optimal for all partial-match queries with exactly one
unspecified attribute, and for those with at least one unspecified attribute
``i`` such that ``d_i mod M = 0`` (see :mod:`repro.theory.conditions`).  Its
weakness, which the paper's experiments expose, is square-ish range queries:
an ``a x b`` query with ``a + b - 1 <= M`` cannot spread over more than
``a + b - 1`` distinct disks (the coordinate sums form a contiguous run), so
small squares pile up on few disks.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SchemeError
from repro.core.grid import Grid
from repro.schemes.base import DeclusteringScheme, block_coordinate_arrays

__all__ = [
    "DiskModuloScheme",
    "GeneralizedDiskModuloScheme",
    "LinearModScheme",
    "linear_mod_disks",
]


def linear_mod_disks(
    coefficients: Sequence[int],
    coordinate_arrays: Sequence[np.ndarray],
    num_disks: int,
) -> np.ndarray:
    """``(c_1 i_1 + ... + c_k i_k) mod M`` over coordinate arrays, int64.

    The whole-grid (or slab) form of the linear rule: ``coordinate_arrays``
    come from ``grid.coordinate_arrays()`` or
    :func:`~repro.schemes.base.block_coordinate_arrays`.  numpy's modulo
    follows python semantics, so negative coefficients land in
    ``[0, M)`` exactly as in ``disk_of``.  Each coefficient is reduced
    mod ``M`` first (the same residue), so no product can wrap int64
    however large the coefficient.
    """
    # Open coordinate vectors keep every partial sum small; only the
    # last addition broadcasts to the full table.
    total = sum(
        (int(coefficient) % num_disks) * axis_coords
        for coefficient, axis_coords in zip(coefficients, coordinate_arrays)
    )
    return np.remainder(total, num_disks, out=total)


class LinearModScheme(DeclusteringScheme):
    """Base of the linear family: disk = (c_1 i_1 + ... + c_k i_k) mod M.

    Subclasses implement :meth:`coefficients_for`; the per-bucket rule,
    the whole-grid table and the row slab of the chunked build all come
    from that one vector through :func:`linear_mod_disks`.
    """

    @abc.abstractmethod
    def coefficients_for(
        self, grid: Grid, num_disks: int
    ) -> Tuple[int, ...]:
        """The coefficient vector used for this configuration."""

    def disk_of(self, coords: Sequence[int], grid: Grid, num_disks: int) -> int:
        coefficients = self.coefficients_for(grid, num_disks)
        return sum(
            c * int(i) for c, i in zip(coefficients, coords)
        ) % num_disks

    def disk_array(self, grid: Grid, num_disks: int) -> np.ndarray:
        return linear_mod_disks(
            self.coefficients_for(grid, num_disks),
            grid.coordinate_arrays(),
            num_disks,
        )

    def disk_array_block(
        self, grid: Grid, num_disks: int, start: int, stop: int
    ) -> np.ndarray:
        return linear_mod_disks(
            self.coefficients_for(grid, num_disks),
            block_coordinate_arrays(grid, start, stop),
            num_disks,
        )


class DiskModuloScheme(LinearModScheme):
    """DM / CMD: disk = (sum of bucket coordinates) mod M."""

    name = "dm"

    def coefficients_for(
        self, grid: Grid, num_disks: int
    ) -> Tuple[int, ...]:
        return (1,) * grid.ndim


class GeneralizedDiskModuloScheme(LinearModScheme):
    """GDM: disk = (c_1 i_1 + ... + c_k i_k) mod M with fixed coefficients.

    Parameters
    ----------
    coefficients:
        One integer per attribute.  ``None`` (default) means all ones, i.e.
        plain DM.  A classic non-trivial choice on two attributes is
        ``(1, q)`` with ``q`` coprime to ``M``, which skews the diagonal
        stripes of DM.
    """

    name = "gdm"

    def __init__(self, coefficients: Optional[Sequence[int]] = None):
        self._coefficients: Optional[Tuple[int, ...]] = (
            None
            if coefficients is None
            else tuple(int(c) for c in coefficients)
        )

    @property
    def coefficients(self) -> Optional[Tuple[int, ...]]:
        """The configured coefficient vector (``None`` = all ones)."""
        return self._coefficients

    def coefficients_for(
        self, grid: Grid, num_disks: int
    ) -> Tuple[int, ...]:
        if self._coefficients is None:
            return (1,) * grid.ndim
        if len(self._coefficients) != grid.ndim:
            raise SchemeError(
                f"GDM has {len(self._coefficients)} coefficients but the "
                f"grid has {grid.ndim} attributes"
            )
        return self._coefficients

    def __repr__(self) -> str:
        return (
            f"GeneralizedDiskModuloScheme(coefficients={self._coefficients})"
        )
