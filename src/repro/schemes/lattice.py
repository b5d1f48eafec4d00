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
* **exh** (expensive, strongest): exhaustively score coefficient vectors
  over the coprime set against small-cube workloads, with a combination
  budget to keep high dimensions tractable.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import SchemeError
from repro.core.grid import Grid
from repro.schemes.base import DeclusteringScheme
from repro.schemes.cyclic import coprime_skips, rphm_skip
from repro.schemes.disk_modulo import linear_mod_disks

__all__ = [
    "LatticeScheme",
    "exhaustive_coefficients",
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


def exhaustive_coefficients(
    grid: Grid,
    num_disks: int,
    max_combinations: int = 4096,
) -> Tuple[int, ...]:
    """The best coefficient vector ``(1, c_2, ..., c_k)`` on small cubes.

    Scores each candidate by the summed mean RT of the side-2 and side-3
    cubes over all placements, compared exactly: each shape's placement
    count is the same for every candidate, so the score is the integer
    sum of RT totals over a common denominator.  Ties break
    lexicographically.  When the full coprime product exceeds
    ``max_combinations``, candidates are thinned deterministically
    (every n-th combination), which keeps the search exact in 2-d/3-d
    and principled beyond.
    """
    from repro.core.engine import ResponseTimeEngine
    from repro.core.query import placement_extents

    if num_disks == 1:
        return (0,) * grid.ndim
    skips = coprime_skips(num_disks)
    combos = list(itertools.product(skips, repeat=grid.ndim - 1))
    if len(combos) > max_combinations:
        stride = math.ceil(len(combos) / max_combinations)
        combos = combos[::stride]
    shapes = [
        tuple(min(side, d) for d in grid.dims) for side in (2, 3)
    ]
    placements = [
        math.prod(placement_extents(grid, shape)[1]) for shape in shapes
    ]
    denominator = math.lcm(*placements)
    weights = [denominator // count for count in placements]
    arrays = grid.coordinate_arrays()
    best = None
    best_score = None
    for tail in combos:
        coefficients = (1,) + tail
        engine = ResponseTimeEngine(
            DiskAllocation(
                grid,
                num_disks,
                linear_mod_disks(coefficients, arrays, num_disks),
            )
        )
        score = sum(
            weight * int(engine.sliding_response_times(shape).sum())
            for weight, shape in zip(weights, shapes)
        )
        if best_score is None or score < best_score:
            best_score = score
            best = coefficients
    return best


class LatticeScheme(DeclusteringScheme):
    """k-d lattice: disk = (i_1 + c_2 i_2 + ... + c_k i_k) mod M.

    Parameters
    ----------
    policy:
        ``"power"`` (default, closed-form) or ``"exh"`` (search).
    coefficients:
        Explicit coefficient vector overriding the policy (first entry
        conventionally 1; all entries must be coprime to ``M`` except on
        a single disk).
    """

    name = "lattice"

    _POLICIES = ("power", "exh")

    def __init__(
        self,
        policy: str = "power",
        coefficients: Optional[Sequence[int]] = None,
    ):
        if policy not in self._POLICIES:
            raise SchemeError(
                f"unknown lattice policy {policy!r}; "
                f"choose from {self._POLICIES}"
            )
        self._policy = policy
        self._coefficients = (
            None
            if coefficients is None
            else tuple(int(c) for c in coefficients)
        )

    @property
    def policy(self) -> str:
        """Coefficient-selection policy."""
        return self._policy

    def coefficients_for(
        self, grid: Grid, num_disks: int
    ) -> Tuple[int, ...]:
        """The coefficient vector used for this configuration."""
        self.check_applicable(grid, num_disks)
        if self._coefficients is not None:
            if len(self._coefficients) != grid.ndim:
                raise SchemeError(
                    f"{len(self._coefficients)} coefficients for a "
                    f"{grid.ndim}-d grid"
                )
            if num_disks > 1:
                for coefficient in self._coefficients:
                    if math.gcd(coefficient, num_disks) != 1:
                        raise SchemeError(
                            f"coefficient {coefficient} not coprime to "
                            f"M={num_disks}"
                        )
            return self._coefficients
        if self._policy == "power":
            return power_coefficients(grid.ndim, num_disks)
        return exhaustive_coefficients(grid, num_disks)

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

    def __repr__(self) -> str:
        return (
            f"LatticeScheme(policy={self._policy!r}, "
            f"coefficients={self._coefficients})"
        )
