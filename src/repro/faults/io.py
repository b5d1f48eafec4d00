"""Chaos injection: the one fault plan of the library.

An environment-variable fault plan reaches the exact points where a
disk-full, a torn write, a corrupted cache or a crashed experiment would
strike, usable both from the test suite and from the shell::

    REPRO_IO_FAULTS="experiment.X5:exit" \\
    REPRO_IO_FAULTS_STATE=/tmp/io-fault-state \\
        python -m repro experiment all --quick --checkpoint run.pkl

Plan grammar: semicolon-separated ``POINT[:MODE][:TIMES]`` entries.

* ``POINT`` is one of the injection points wired through the library:

  ====================  ===============================================
  ``sat.write``         after each tile commit of a chunked SAT build,
                        at a tile boundary: tile ``i+1`` is filled, tile
                        ``i`` hashed, flushed and named by the partial's
                        manifest, and no digest is in flight
                        (:meth:`~repro.core.sat.SummedAreaTable.build_chunked`)
  ``sat.read``          on reopening a spilled SAT
                        (:meth:`~repro.core.sat.SummedAreaTable.open_mmap`)
  ``compile``           in the native backend's kernel compile/cache path
                        (:func:`repro.core.backends.native._compile_library`)
  ``experiment.<KEY>``  before the runner's experiment ``KEY`` (``E1`` ...
                        ``THM``) does any work
                        (:func:`repro.experiments.runner.run_experiment`)
  ====================  ===============================================

  Points match case-insensitively; an unknown point, or an unknown
  experiment key, is a :class:`~repro.core.exceptions.FaultError`.
* ``MODE`` is ``error`` (the default — raise :class:`InjectedIOFault`,
  an ``OSError``, exactly what the real failure would look like) or
  ``exit`` (hard ``os._exit`` mid-operation: the deterministic,
  test-friendly stand-in for SIGKILL / power loss, leaving partial
  artifacts and checkpoints on disk for the recovery paths to deal
  with);
* ``TIMES`` (default 1) is how many hits of that point to sabotage.

Because ``MODE`` is optional, ``sat.write:2`` means "error mode, twice".

Attempt counting uses one file per point under
``REPRO_IO_FAULTS_STATE`` so it survives process boundaries (a
process that dies and is re-run, subprocess test harnesses).  Without a state directory the
fault fires on *every* hit — useful for testing hard-down behavior.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.exceptions import FaultError

__all__ = [
    "IO_EXIT_STATUS",
    "IO_FAULTS_ENV",
    "IO_FAULTS_STATE_ENV",
    "IO_POINTS",
    "InjectedIOFault",
    "IoFaultPlan",
    "maybe_io_fault",
]

IO_FAULTS_ENV = "REPRO_IO_FAULTS"
IO_FAULTS_STATE_ENV = "REPRO_IO_FAULTS_STATE"

#: Exit status of ``exit``-mode faults.
IO_EXIT_STATUS = 23

#: Injection points wired through the artifact layer.
IO_POINTS = ("sat.write", "sat.read", "compile")

_MODES = ("error", "exit")


class InjectedIOFault(OSError):
    """An artificial I/O failure raised by the fault plan (``error`` mode).

    An ``OSError`` on purpose: recovery code must treat an injected
    fault exactly like a real failed ``write(2)``/``open(2)`` — any
    handler that special-cases it is cheating the chaos test.
    """


def _canonical_point(name: str) -> str:
    """The wired point ``name`` names, or :class:`FaultError`."""
    # Deferred: the runner imports this module.
    from repro.experiments.runner import EXPERIMENT_KEYS

    points = IO_POINTS + tuple(f"experiment.{key}" for key in EXPERIMENT_KEYS)
    for point in points:
        if point.lower() == name.lower():
            return point
    raise FaultError(f"unknown I/O fault point {name!r}; known: {points}")


@dataclass(frozen=True)
class _Entry:
    point: str
    mode: str
    times: int


class IoFaultPlan:
    """A parsed I/O fault plan plus its hit-count state directory."""

    def __init__(
        self,
        entries: Dict[str, "_Entry"],
        state_dir: Optional[Path] = None,
    ):
        self._entries = entries
        self._state_dir = state_dir

    @classmethod
    def from_spec(
        cls, spec: str, state_dir: Optional[str] = None
    ) -> "IoFaultPlan":
        """Parse ``POINT[:MODE][:TIMES];...`` into a plan."""
        entries: Dict[str, _Entry] = {}
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            parts = [p.strip() for p in raw.split(":")]
            if len(parts) not in (1, 2, 3):
                raise FaultError(
                    f"bad I/O fault entry {raw!r}; "
                    f"expected POINT[:MODE][:TIMES]"
                )
            point = _canonical_point(parts[0])
            mode, times = "error", 1
            if len(parts) == 3:
                mode, times = parts[1].lower(), int(parts[2])
            elif len(parts) == 2:
                # MODE is optional: a bare number is TIMES.
                if parts[1].isdigit():
                    times = int(parts[1])
                else:
                    mode = parts[1].lower()
            if mode not in _MODES:
                raise FaultError(
                    f"unknown I/O fault mode {mode!r}; known: {_MODES}"
                )
            if times < 1:
                raise FaultError(
                    f"I/O fault entry {raw!r} must fire at least once"
                )
            entries[point] = _Entry(point=point, mode=mode, times=times)
        return cls(entries, Path(state_dir) if state_dir else None)

    @classmethod
    def from_environment(cls) -> Optional["IoFaultPlan"]:
        """The plan named by ``REPRO_IO_FAULTS``, if any."""
        spec = os.environ.get(IO_FAULTS_ENV)
        if not spec:
            return None
        return cls.from_spec(spec, os.environ.get(IO_FAULTS_STATE_ENV))

    def _bump_hit(self, point: str) -> int:
        """Record one more hit of ``point``; returns the 1-based count.

        Without a state directory every hit counts as the first, so the
        fault fires forever — documented hard-down behavior.

        The counter may be bumped from several processes at once (any
        processes sharing one state directory), so the read-modify-write
        holds an exclusive ``flock`` — otherwise two processes can read
        the same value, both claim hit 1, and a ``TIMES=1`` exit plan
        kills both instead of the one victim the plan named.
        """
        if self._state_dir is None:
            return 1
        self._state_dir.mkdir(parents=True, exist_ok=True)
        path = self._state_dir / f"{point.replace('.', '_')}.hits"
        with open(path, "a+") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.seek(0)
                text = handle.read().strip()
                hits = (int(text) if text else 0) + 1
                handle.seek(0)
                handle.truncate()
                handle.write(str(hits))
                handle.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return hits

    def apply(self, point: str, detail: str = "") -> None:
        """Sabotage this hit of ``point`` if the plan says so."""
        entry = self._entries.get(point)
        if entry is None:
            return
        hit = self._bump_hit(entry.point)
        if hit > entry.times:
            return
        if entry.mode == "exit":
            # Hard death mid-operation: no exception, no cleanup, no
            # atexit — the deterministic stand-in for SIGKILL.  Partial
            # artifacts stay on disk for the recovery paths.
            os._exit(IO_EXIT_STATUS)
        suffix = f" ({detail})" if detail else ""
        raise InjectedIOFault(
            f"injected I/O fault at {entry.point}{suffix} "
            f"(hit {hit}/{entry.times})"
        )


def maybe_io_fault(point: str, detail: str = "") -> None:
    """Apply the environment I/O fault plan to one artifact operation.

    No-op unless ``REPRO_IO_FAULTS`` is set; called from the artifact
    layer's hot seams (see :data:`IO_POINTS`) and before each runner
    experiment, so chaos plans reach subprocesses through their
    environment.
    """
    plan = IoFaultPlan.from_environment()
    if plan is not None:
        plan.apply(point, detail)
