"""Cyclic declustering: the 2-d linear rule with a chosen skip.

A direct descendant of the methods the paper evaluates: DM assigns
``(i + j) mod M``, i.e. it walks the disks with *skip 1* per column.  The
cyclic family generalizes the skip,

    disk(<i, j>) = (i + H * j) mod M,      gcd(H, M) = 1,

which tilts DM's diagonal stripes into a 2-d lattice.  A good ``H``
spreads any small rectangle over many distinct disks — the strictly
optimal M = 5 allocation is exactly ``H = 2`` — and fixes DM's small-square
pathology while keeping its optimal row/column behaviour.  It is the
linear rule of :class:`~repro.schemes.disk_modulo.LinearModScheme` with
coefficients ``(1, H)``.

Skip-selection policies (named after the post-paper literature on cyclic
allocation — Prabhakar, Agrawal & El Abbadi — which grew out of exactly
the gap this paper exposed):

* **RPHM** (relatively-prime H to M): ``H`` closest to the golden-section
  point ``M / phi`` among values coprime to ``M`` — a fixed, cheap choice
  that avoids the degenerate skips 1 and M-1.
* **GFIB** (generalized Fibonacci): ``H`` = the largest Fibonacci number
  < M made coprime to ``M`` by decrement — Fibonacci skips give
  near-uniform lattices for the same reason Fibonacci hashing works.
* **EXH** (exhaustive): :func:`exhaustive_coefficients` scores every
  coprime skip on small squares and keeps the best — the strongest, and
  exactly the "use query information" advice the paper's conclusion
  gives.  The same search picks the k-d coefficient vectors of
  :mod:`repro.schemes.lattice`.

Only the 2-d case is defined (as in the literature); the scheme raises
for other dimensionalities.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import List, Tuple

import numpy as np

from repro.core.exceptions import SchemeError, SchemeNotApplicableError
from repro.core.grid import Grid
from repro.schemes.disk_modulo import LinearModScheme, linear_mod_disks

__all__ = [
    "CyclicScheme",
    "GOLDEN_RATIO",
    "MAX_EXHAUSTIVE_COMBINATIONS",
    "coprime_skips",
    "exhaustive_coefficients",
    "gfib_skip",
    "rphm_skip",
]

#: The golden ratio, used by the RPHM default skip.
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

#: Most coefficient vectors :func:`exhaustive_coefficients` scores; a
#: larger coprime product is thinned to every n-th combination.
MAX_EXHAUSTIVE_COMBINATIONS = 4096


def coprime_skips(num_disks: int) -> List[int]:
    """All valid skips ``H`` in ``[1, M)`` with ``gcd(H, M) = 1``.

    For ``M = 1`` the only (degenerate) skip is 0.
    """
    if num_disks <= 0:
        raise SchemeError(f"disk count must be positive, got {num_disks}")
    if num_disks == 1:
        return [0]
    return [
        h for h in range(1, num_disks) if math.gcd(h, num_disks) == 1
    ]


def rphm_skip(num_disks: int) -> int:
    """The relatively-prime skip nearest the golden-section point."""
    candidates = coprime_skips(num_disks)
    target = num_disks / GOLDEN_RATIO
    return min(candidates, key=lambda h: (abs(h - target), h))


def gfib_skip(num_disks: int) -> int:
    """The largest Fibonacci number below M, decremented until coprime."""
    if num_disks <= 2:
        return coprime_skips(num_disks)[-1]
    a, b = 1, 1
    while b < num_disks:
        a, b = b, a + b
    skip = a  # largest Fibonacci < M (a < num_disks <= b)
    while skip > 1 and math.gcd(skip, num_disks) != 1:
        skip -= 1
    return skip


def exhaustive_coefficients(grid: Grid, num_disks: int) -> Tuple[int, ...]:
    """The best coefficient vector ``(1, c_2, ..., c_k)`` on small cubes.

    Each candidate (every ``c_j`` coprime to ``M``) is scored by the
    integer sum, over the side-2 and side-3 cubes clipped to the grid,
    of the RT of the window at the origin.  That is the exact mean RT
    over all placements: moving a window adds a constant mod ``M`` to
    every disk inside it, which relabels the disks without changing
    their bucket counts.  Ties break lexicographically.  When the full
    coprime product exceeds :data:`MAX_EXHAUSTIVE_COMBINATIONS`,
    candidates are thinned deterministically (every n-th combination),
    which keeps the search exhaustive in 2-d/3-d and principled beyond.

    The pick depends only on the extents and ``M``, so it is memoized
    per ``(dims, M)``: the ``-exh`` schemes' scalar ``disk_of`` asks
    for it on every bucket.
    """
    return _exhaustive_search(tuple(grid.dims), int(num_disks))


@functools.lru_cache(maxsize=256)
def _exhaustive_search(
    dims: Tuple[int, ...], num_disks: int
) -> Tuple[int, ...]:
    """:func:`exhaustive_coefficients` keyed by hashable extents."""
    if num_disks == 1:
        return (0,) * len(dims)
    tails = list(
        itertools.product(coprime_skips(num_disks), repeat=len(dims) - 1)
    )
    if len(tails) > MAX_EXHAUSTIVE_COMBINATIONS:
        stride = math.ceil(len(tails) / MAX_EXHAUSTIVE_COMBINATIONS)
        tails = tails[::stride]
    windows = [
        np.indices(tuple(min(side, d) for d in dims), sparse=True)
        for side in (2, 3)
    ]

    def score(tail: Tuple[int, ...]) -> int:
        return sum(
            int(
                np.bincount(
                    linear_mod_disks((1,) + tail, window, num_disks).ravel()
                ).max()
            )
            for window in windows
        )

    return (1,) + min(tails, key=score)


class CyclicScheme(LinearModScheme):
    """Cyclic declustering: disk = (i + H*j) mod M with a policy-chosen H.

    Parameters
    ----------
    policy:
        ``"rphm"`` (default), ``"gfib"``, or ``"exh"``.
    """

    name = "cyclic"

    _POLICIES = ("rphm", "gfib", "exh")

    def __init__(self, policy: str = "rphm"):
        if policy not in self._POLICIES:
            raise SchemeError(
                f"unknown cyclic policy {policy!r}; "
                f"choose from {self._POLICIES}"
            )
        self._policy = policy

    @property
    def policy(self) -> str:
        """The skip-selection policy in force."""
        return self._policy

    def check_applicable(self, grid: Grid, num_disks: int) -> None:
        super().check_applicable(grid, num_disks)
        if grid.ndim != 2:
            raise SchemeNotApplicableError(
                f"cyclic declustering is 2-d only, got {grid.ndim}-d grid"
            )

    def coefficients_for(
        self, grid: Grid, num_disks: int
    ) -> Tuple[int, ...]:
        """``(1, H)`` with the skip ``H`` chosen by the policy."""
        self.check_applicable(grid, num_disks)
        if self._policy == "rphm":
            return (1, rphm_skip(num_disks))
        if self._policy == "gfib":
            return (1, gfib_skip(num_disks))
        return exhaustive_coefficients(grid, num_disks)

    def skip_for(self, grid: Grid, num_disks: int) -> int:
        """The skip this scheme would use for the configuration."""
        return self.coefficients_for(grid, num_disks)[1]

    def __repr__(self) -> str:
        return f"CyclicScheme(policy={self._policy!r})"
