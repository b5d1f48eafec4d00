"""Crash injection for the experiment runner.

The self-healing runner (:mod:`repro.experiments.runner`) is only worth
trusting if its failure paths are exercised, including a process that
dies outright and a run resumed from its checkpoint in a fresh
interpreter.  This module is the bridge: an environment-variable fault
plan that every ``run_experiment`` call consults before doing real
work, usable both from the test suite and from the shell for ad-hoc
chaos runs::

    REPRO_RUNNER_FAULTS="E2:crash:1" \\
    REPRO_RUNNER_FAULTS_STATE=/tmp/fault-state \\
        python -m repro experiment all --quick

Plan grammar: semicolon-separated ``KEY:MODE[:TIMES]`` entries, where

* ``KEY`` is an experiment key (``E1`` ... ``THM``);
* ``MODE`` is ``crash`` (raise :class:`InjectedFault`, which the runner
  retries) or ``exit`` (hard ``os._exit`` — the process dies without a
  traceback, leaving only its checkpoint for ``--resume``);
* ``TIMES`` (default 1) is how many attempts of that key to sabotage.

Attempt counting needs state that survives the process, so it lives in
one file per key under ``REPRO_RUNNER_FAULTS_STATE``.  Without a state
directory the fault fires on *every* attempt — useful for testing retry
exhaustion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.core.exceptions import FaultError

__all__ = [
    "FAULTS_ENV",
    "FAULTS_STATE_ENV",
    "InjectedFault",
    "RunnerFaultPlan",
    "maybe_inject_runner_fault",
]

FAULTS_ENV = "REPRO_RUNNER_FAULTS"
FAULTS_STATE_ENV = "REPRO_RUNNER_FAULTS_STATE"

_MODES = ("crash", "exit")


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault plan (``crash`` mode).

    Deliberately *not* a :class:`~repro.core.exceptions.DeclusteringError`:
    to the runner an injected crash must look exactly like an unexpected
    experiment bug, not a polite library error.
    """


@dataclass(frozen=True)
class _Entry:
    key: str
    mode: str
    times: int


class RunnerFaultPlan:
    """A parsed fault plan plus its attempt-count state directory."""

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
    ) -> "RunnerFaultPlan":
        """Parse ``KEY:MODE[:TIMES];...`` into a plan."""
        entries: Dict[str, _Entry] = {}
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(":")
            if len(parts) not in (2, 3):
                raise FaultError(
                    f"bad fault entry {raw!r}; expected KEY:MODE[:TIMES]"
                )
            key, mode = parts[0].strip().upper(), parts[1].strip().lower()
            if mode not in _MODES:
                raise FaultError(
                    f"unknown fault mode {mode!r}; known: {_MODES}"
                )
            times = int(parts[2]) if len(parts) == 3 else 1
            if times < 1:
                raise FaultError(
                    f"fault entry {raw!r} must fire at least once"
                )
            entries[key] = _Entry(key=key, mode=mode, times=times)
        return cls(
            entries, Path(state_dir) if state_dir else None
        )

    @classmethod
    def from_environment(cls) -> Optional["RunnerFaultPlan"]:
        """The plan named by ``REPRO_RUNNER_FAULTS``, if any."""
        spec = os.environ.get(FAULTS_ENV)
        if not spec:
            return None
        return cls.from_spec(spec, os.environ.get(FAULTS_STATE_ENV))

    def _bump_attempt(self, key: str) -> int:
        """Record one more attempt of ``key``; returns the 1-based count.

        Without a state directory every attempt counts as the first, so
        the fault fires forever — documented retry-exhaustion behavior.
        """
        if self._state_dir is None:
            return 1
        self._state_dir.mkdir(parents=True, exist_ok=True)
        path = self._state_dir / f"{key}.attempts"
        attempts = 0
        if path.exists():
            text = path.read_text().strip()
            attempts = int(text) if text else 0
        attempts += 1
        path.write_text(str(attempts))
        return attempts

    def apply(self, key: str) -> None:
        """Sabotage this attempt of ``key`` if the plan says so."""
        entry = self._entries.get(key.upper())
        if entry is None:
            return
        attempt = self._bump_attempt(entry.key)
        if attempt > entry.times:
            return
        if entry.mode == "crash":
            raise InjectedFault(
                f"injected crash in experiment {entry.key} "
                f"(attempt {attempt}/{entry.times})"
            )
        # A hard exit: no exception, no cleanup — exactly what a
        # segfaulting or OOM-killed process looks like.
        os._exit(17)


def maybe_inject_runner_fault(key: str) -> None:
    """Apply the environment fault plan to one experiment attempt.

    No-op unless ``REPRO_RUNNER_FAULTS`` is set; called by
    :func:`repro.experiments.runner.run_experiment` before each attempt.
    """
    plan = RunnerFaultPlan.from_environment()
    if plan is not None:
        plan.apply(key)
