"""k-dimensional lattice declustering: auto-tuned GDM coefficients.

The 2-d cyclic family (:mod:`repro.schemes.cyclic`) generalizes to any
dimensionality: fix the first coefficient to 1 and choose the rest,

    disk(<i_1, ..., i_k>) = (i_1 + c_2 i_2 + ... + c_k i_k) mod M,

with every ``c_j`` coprime to ``M``.  Good coefficient vectors spread
small cubes over many disks in every 2-d shadow of the grid
simultaneously — the k-d analogue of picking a good skip.

Policies:

* **power** (default, cheap): ``c_j = H^(j-1) mod M`` with ``H`` the
  golden-section skip of :func:`repro.schemes.cyclic.rphm_skip`, nudged
  to the nearest coprime value per coordinate.  Geometric progressions
  of a good skip give near-uniform lattices in all dimensions (the same
  principle as Korobov lattice rules in quasi-Monte Carlo).
* **exh** (strongest): the exhaustive small-cube search of
  :func:`repro.schemes.cyclic.exhaustive_coefficients`, which on 2-d
  grids picks exactly the ``cyclic-exh`` skip.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.exceptions import SchemeError
from repro.core.grid import Grid
from repro.schemes.cyclic import (
    coprime_skips,
    exhaustive_coefficients,
    rphm_skip,
)
from repro.schemes.disk_modulo import LinearModScheme

__all__ = [
    "LatticeScheme",
    "power_coefficients",
]


def _nearest_coprime(value: int, num_disks: int) -> int:
    """The coprime-to-M value closest to ``value`` (mod M, nonzero)."""
    if num_disks == 1:
        return 0
    value %= num_disks
    candidates = coprime_skips(num_disks)
    return min(candidates, key=lambda c: (abs(c - value), c))


def power_coefficients(ndim: int, num_disks: int) -> Tuple[int, ...]:
    """Coefficient vector ``(1, H, H^2, ...)`` with coprime nudging."""
    if ndim < 1:
        raise SchemeError(f"need at least one dimension, got {ndim}")
    if num_disks == 1:
        return (0,) * ndim
    base = rphm_skip(num_disks)
    coefficients = [1]
    power = 1
    for _ in range(1, ndim):
        power = (power * base) % num_disks
        coefficients.append(_nearest_coprime(power, num_disks))
    return tuple(coefficients)


class LatticeScheme(LinearModScheme):
    """k-d lattice: disk = (i_1 + c_2 i_2 + ... + c_k i_k) mod M.

    Parameters
    ----------
    policy:
        ``"power"`` (default, closed-form) or ``"exh"`` (search).
    """

    name = "lattice"

    _POLICIES = ("power", "exh")

    def __init__(self, policy: str = "power"):
        if policy not in self._POLICIES:
            raise SchemeError(
                f"unknown lattice policy {policy!r}; "
                f"choose from {self._POLICIES}"
            )
        self._policy = policy

    @property
    def policy(self) -> str:
        """Coefficient-selection policy."""
        return self._policy

    def coefficients_for(
        self, grid: Grid, num_disks: int
    ) -> Tuple[int, ...]:
        """The coefficient vector used for this configuration."""
        self.check_applicable(grid, num_disks)
        if self._policy == "power":
            return power_coefficients(grid.ndim, num_disks)
        return exhaustive_coefficients(grid, num_disks)

    def __repr__(self) -> str:
        return f"LatticeScheme(policy={self._policy!r})"
