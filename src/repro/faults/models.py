"""Fault models: fail-stop disks, stragglers, and seeded scenario sampling.

The paper evaluates declustering on ``M`` perfectly healthy disks.  Real
arrays are not so polite: disks die outright (fail-stop) and, more often,
merely slow down (stragglers — a disk that serves each bucket at ``factor``
times the healthy cost dominates the response time long before it fails).
This module gives both failure modes a small, immutable vocabulary:

* :class:`FailStop` — a set of disks that serve nothing at all;
* :class:`Slowdown` — one disk whose per-bucket service time is multiplied
  by ``factor`` (> 1 is slower, as in the straggler literature);
* :class:`FaultScenario` — the merged state of an ``M``-disk array under
  any combination of the two, the object every degraded-mode evaluation
  consumes (:mod:`repro.faults.degraded`, the replication planner);
* :class:`FaultInjector` — deterministic, seeded sampling of scenarios so
  experiments over random failures replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import FaultError

__all__ = [
    "FailStop",
    "Fault",
    "FaultInjector",
    "FaultScenario",
    "Slowdown",
]


@dataclass(frozen=True)
class FailStop:
    """One or more disks that stop serving entirely.

    ``disks`` is normalized to a sorted tuple of distinct ids; validation
    against the array size happens when the fault joins a
    :class:`FaultScenario` (the fault itself does not know ``M``).
    """

    disks: Tuple[int, ...]

    def __init__(self, disks: Union[int, Iterable[int]]):
        if isinstance(disks, int):
            normalized: Tuple[int, ...] = (int(disks),)
        else:
            normalized = tuple(sorted({int(d) for d in disks}))
        if not normalized:
            raise FaultError("FailStop needs at least one disk id")
        if any(d < 0 for d in normalized):
            raise FaultError(f"negative disk id in FailStop: {normalized}")
        object.__setattr__(self, "disks", normalized)


@dataclass(frozen=True)
class Slowdown:
    """A straggler: ``disk`` serves each bucket at ``factor`` x the cost.

    ``factor`` must exceed 1 — a "slowdown" at or below healthy speed is a
    specification error, not a fault.
    """

    disk: int
    factor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "disk", int(self.disk))
        object.__setattr__(self, "factor", float(self.factor))
        if self.disk < 0:
            raise FaultError(f"negative disk id in Slowdown: {self.disk}")
        if not self.factor > 1.0:
            raise FaultError(
                f"slowdown factor must be > 1, got {self.factor} "
                f"(disk {self.disk})"
            )


Fault = Union[FailStop, Slowdown]


class FaultScenario:
    """The state of an ``M``-disk array under a set of faults.

    Merges any number of :class:`FailStop` / :class:`Slowdown` faults into
    per-disk state: a frozen set of failed disks plus a read-only vector of
    service-time factors (1.0 for healthy disks; compounded when several
    slowdowns hit the same disk).  A disk that both fails and slows is
    simply failed — fail-stop dominates.

    Examples
    --------
    >>> s = FaultScenario(4, [FailStop(1), Slowdown(2, 3.0)])
    >>> s.is_failed(1), s.factor(2), s.surviving()
    (True, 3.0, (0, 2, 3))
    """

    __slots__ = ("_num_disks", "_failed", "_factors")

    def __init__(
        self, num_disks: int, faults: Sequence[Fault] = ()
    ):
        num_disks = int(num_disks)
        if num_disks <= 0:
            raise FaultError(
                f"number of disks must be positive, got {num_disks}"
            )
        failed = set()
        factors = np.ones(num_disks, dtype=np.float64)
        for fault in faults:
            if isinstance(fault, FailStop):
                for disk in fault.disks:
                    self._check_disk(disk, num_disks)
                    failed.add(disk)
            elif isinstance(fault, Slowdown):
                self._check_disk(fault.disk, num_disks)
                factors[fault.disk] *= fault.factor
            else:
                raise FaultError(
                    f"unknown fault type {type(fault).__name__!r}"
                )
        factors[sorted(failed)] = 1.0  # fail-stop dominates any slowdown
        factors.setflags(write=False)
        self._num_disks = num_disks
        self._failed = frozenset(failed)
        self._factors = factors

    @staticmethod
    def _check_disk(disk: int, num_disks: int) -> None:
        if not 0 <= disk < num_disks:
            raise FaultError(
                f"fault names disk {disk} outside [0, {num_disks})"
            )

    @classmethod
    def healthy(cls, num_disks: int) -> "FaultScenario":
        """The no-fault scenario for an ``M``-disk array."""
        return cls(num_disks)

    @property
    def num_disks(self) -> int:
        """``M``, the size of the (possibly degraded) array."""
        return self._num_disks

    @property
    def failed(self) -> frozenset:
        """The set of fail-stopped disk ids."""
        return self._failed

    @property
    def factors(self) -> np.ndarray:
        """Per-disk service-time multipliers, ``shape (M,)``, read-only.

        Failed disks report factor 1.0; they serve nothing, so the value
        never enters a completion time (their load is always zero).
        """
        return self._factors

    @property
    def num_failed(self) -> int:
        """How many disks are fail-stopped."""
        return len(self._failed)

    @property
    def is_healthy(self) -> bool:
        """True when no disk is failed or slowed."""
        return not self._failed and bool(np.all(self._factors <= 1.0))

    def is_failed(self, disk: int) -> bool:
        """Whether ``disk`` is fail-stopped."""
        return int(disk) in self._failed

    def factor(self, disk: int) -> float:
        """Service-time multiplier of ``disk`` (1.0 when healthy)."""
        return float(self._factors[int(disk)])

    def capacity(self, disk: int, time: float) -> int:
        """Most buckets ``disk`` finishes by ``time`` (0 if it failed).

        The largest integer ``L`` with ``L * factor(disk) <= time``,
        decided on the float product itself — the same product every
        candidate completion time is built from — so a time exactly
        reachable by ``L`` buckets always admits them and no fudge
        epsilon ever admits an ``L`` whose finish time exceeds ``time``.
        """
        return int(self.capacities([time])[0, int(disk)])

    def capacities(self, times: Sequence[float]) -> np.ndarray:
        """:meth:`capacity` of every disk at every time, ``(n, M)`` int64.

        Row ``i`` holds, per disk, the largest ``L`` with
        ``L * factor_d <= times[i]`` on the float product, and 0 for
        failed disks and for times ``<= 0``.  The division's estimate is
        corrected on the products themselves, one step at a time, so the
        rule never depends on how the quotient rounded.
        """
        times = np.asarray(times, dtype=np.float64).reshape(-1, 1)
        factors = self._factors
        loads = np.floor(np.maximum(times, 0.0) / factors).astype(np.int64)
        while True:
            short = (loads + 1) * factors <= times
            if not short.any():
                break
            loads += short
        while True:
            over = (loads > 0) & (loads * factors > times)
            if not over.any():
                break
            loads -= over
        loads[:, sorted(self._failed)] = 0
        return loads

    def surviving(self) -> Tuple[int, ...]:
        """Ids of the disks still serving, ascending."""
        return tuple(
            d for d in range(self._num_disks) if d not in self._failed
        )

    def describe(self) -> str:
        """One-line human-readable summary of the scenario."""
        parts: List[str] = []
        if self._failed:
            parts.append(
                "failed=" + ",".join(str(d) for d in sorted(self._failed))
            )
        slow = [
            f"{d}x{self._factors[d]:g}"
            for d in range(self._num_disks)
            if d not in self._failed and self._factors[d] > 1.0
        ]
        if slow:
            parts.append("slow=" + ",".join(slow))
        return " ".join(parts) if parts else "healthy"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultScenario)
            and other._num_disks == self._num_disks
            and other._failed == self._failed
            and np.array_equal(other._factors, self._factors)
        )

    def __hash__(self) -> int:
        return hash(
            (self._num_disks, self._failed, self._factors.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"FaultScenario(num_disks={self._num_disks}, "
            f"{self.describe()})"
        )


class FaultInjector:
    """Deterministic sampling of failure scenarios.

    All randomness flows through one seeded ``numpy.random.Generator``, so
    a run that injects faults replays exactly given the same seed and call
    sequence — the same contract the workload generators follow.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def fail_stop(
        self, num_disks: int, num_failures: int = 1
    ) -> FaultScenario:
        """A scenario with ``num_failures`` distinct fail-stopped disks."""
        num_disks = int(num_disks)
        num_failures = int(num_failures)
        if num_failures < 0:
            raise FaultError(
                f"failure count must be non-negative: {num_failures}"
            )
        if num_failures >= num_disks:
            raise FaultError(
                f"cannot fail {num_failures} of {num_disks} disks and "
                "keep an array to evaluate"
            )
        if num_failures == 0:
            return FaultScenario.healthy(num_disks)
        disks = self._rng.choice(num_disks, size=num_failures, replace=False)
        return FaultScenario(
            num_disks, [FailStop(int(d) for d in disks)]
        )

    def slowdown(
        self,
        num_disks: int,
        num_slow: int = 1,
        factor_range: Tuple[float, float] = (1.5, 4.0),
    ) -> FaultScenario:
        """A scenario with ``num_slow`` stragglers, factors drawn uniformly."""
        num_disks = int(num_disks)
        num_slow = int(num_slow)
        lo, hi = (float(factor_range[0]), float(factor_range[1]))
        if not 1.0 < lo <= hi:
            raise FaultError(
                f"factor range must satisfy 1 < lo <= hi, got ({lo}, {hi})"
            )
        if not 0 <= num_slow <= num_disks:
            raise FaultError(
                f"cannot slow {num_slow} of {num_disks} disks"
            )
        if num_slow == 0:
            return FaultScenario.healthy(num_disks)
        disks = self._rng.choice(num_disks, size=num_slow, replace=False)
        faults: List[Fault] = [
            Slowdown(int(d), float(self._rng.uniform(lo, hi)))
            for d in disks
        ]
        return FaultScenario(num_disks, faults)

    def scenarios(
        self,
        num_disks: int,
        num_failures: int,
        count: int,
    ) -> List[FaultScenario]:
        """``count`` independently sampled fail-stop scenarios."""
        if count < 0:
            raise FaultError(f"scenario count must be non-negative: {count}")
        return [
            self.fail_stop(num_disks, num_failures) for _ in range(count)
        ]
