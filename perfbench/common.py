"""Plumbing shared by the workloads: paths, environment, statistics.

Everything the benchmark writes lands under ``.perfbench_work/`` in the
checkout (native kernel cache, spilled tables, daemon logs, traces and
result records), so a run touches nothing outside the checkout.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BENCH_DIR",
    "CALIB_REF_S",
    "ROOT",
    "SRC",
    "WORK",
    "Outcome",
    "Window",
    "calibrate",
    "child_env",
    "git_commit",
    "median",
    "p99",
    "peak_rss_mb",
    "prepare_process",
    "process_cpu_s",
    "read_declared",
    "setup_samples",
    "stamp",
    "start_until_ready",
    "stop_process",
    "vmhwm_mb",
    "window_figures",
]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Settings that would change what the program does; the benchmark runs
#: it on its defaults unless a workload says otherwise.
_CLEARED_ENV = (
    "REPRO_BACKEND", "REPRO_SAT_BUDGET", "REPRO_BUILD_WORKERS",
    "REPRO_VERIFY", "REPRO_IO_FAULTS", "REPRO_IO_FAULTS_STATE",
    "REPRO_RUNNER_FAULTS", "REPRO_RUNNER_FAULTS_STATE", "REPRO_DISABLE_SHM",
)

#: Seconds a child process gets to come up before the run fails.
READY_TIMEOUT = 120.0


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``metrics`` maps a declared metric name to ``(value, samples)``;
    ``facts`` carries stamp fields only the workload knows; a traced run
    adds its Chrome trace-event document as ``trace``.
    """

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, int]]
    facts: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None


def child_env() -> Dict[str, str]:
    """Environment for the benchmark and every process it starts."""
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH_DIR)))
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["REPRO_SAT_DIR"] = str(WORK / "sat")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def prepare_process() -> None:
    """Point this process at the checkout's sources and work directory."""
    for name in ("native", "sat", "tmp", "records", "traces", "logs"):
        (WORK / name).mkdir(parents=True, exist_ok=True)
    env = child_env()
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    for name in ("REPRO_NATIVE_CACHE", "REPRO_SAT_DIR", "TMPDIR"):
        os.environ[name] = env[name]
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def read_declared() -> Dict[str, Any]:
    """``BENCHMARK.json`` from the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def p99(values: Sequence[float]) -> float:
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(0.99 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class Window:
    """Operations timed over one stretch of wall time.

    ``samples`` are per-operation seconds, ``work`` the answers the
    stretch produced (queries, plans, reports) and ``cpu_s`` the CPU
    time the process doing the work (the benchmark itself, or the
    daemon) spent.  ``yard_s`` is the ``calibrate()`` time taken just
    before the stretch.
    """

    wall_s: float
    samples: List[float]
    work: int
    cpu_s: float
    yard_s: float


def window_figures(windows: Sequence[Window]) -> Dict[str, Tuple[float, int]]:
    """Latency, CPU and throughput figures of the ops in ``windows``.

    ``op_ms`` and ``ops_per_s`` are medians over the windows of each
    window's mean op time and rate: on a shared host a stretch slowed by
    other tenants moves a median of windows less than a pooled mean.
    The percentiles and the CPU per op pool every op.

    ``op_norm_ms`` and ``ops_norm_per_s`` are the same two figures in
    reference-host time: scaled by ``CALIB_REF_S`` over the median
    yardstick time of the windows.  A drift in host speed moves the
    program and the yardstick alike and cancels; a change to the
    program moves only the program.
    """
    samples = [value for window in windows for value in window.samples]
    cpu = sum(window.cpu_s for window in windows)
    count = len(samples)
    means = [sum(w.samples) / len(w.samples) for w in windows if w.samples]
    op_ms = median(means) * 1e3
    rate = median([w.work / w.wall_s for w in windows])
    yard = [w.yard_s for w in windows]
    slowdown = median(yard) / CALIB_REF_S
    return {
        "op_norm_ms": (op_ms / slowdown, count),
        "ops_norm_per_s": (rate * slowdown, count),
        "op_ms": (op_ms, count),
        "ops_per_s": (rate, count),
        "op_p50_ms": (median(samples) * 1e3, count),
        "op_p99_ms": (p99(samples) * 1e3, count),
        "op_cpu_ms": (cpu / count * 1e3, count),
        "yardstick_ms": (median(yard) * 1e3, len(yard)),
    }


# -- host speed ---------------------------------------------------------

#: ``calibrate()`` seconds on the reference host (a 2-vCPU VM) in a
#: typical phase; figures scaled by it are in that host's time.
CALIB_REF_S = 0.040

_CALIB_KEYS = range(20_000)
_calib_array: Optional[Any] = None


def calibrate() -> float:
    """Seconds a fixed task that runs none of the program takes now.

    The task is the benchmark's yardstick.  It mixes interpreter work
    (dict and integer operations) with memory-bound numpy passes, the
    kinds of work the workloads do, so a shared host that runs slower
    for a while slows it by about the same share as the program.
    """
    import numpy as np

    global _calib_array
    if _calib_array is None:
        _calib_array = np.random.default_rng(0).integers(
            0, 1 << 20, size=1 << 21, dtype=np.int64
        )
    started = time.perf_counter()
    table = {key: key * 3 for key in _CALIB_KEYS}
    total = 0
    for _ in range(8):
        for key, value in table.items():
            total += value ^ key
    for _ in range(4):
        total += int(np.cumsum(_calib_array)[-1] & 1)
    total += int(np.sort(_calib_array[: 1 << 17])[0])
    elapsed = time.perf_counter() - started
    if total < 0:
        raise AssertionError("calibration task overflowed")
    return elapsed


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds another process has used (Linux)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vmhwm_mb(pid: int) -> float:
    """Another process's peak resident set size (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- child processes ----------------------------------------------------


def start_until_ready(
    command: List[str], marker: str, log_name: str
) -> Tuple[subprocess.Popen, float, str]:
    """Launch ``command``; return it once a stdout line starts with ``marker``.

    Returns ``(process, seconds from launch to the line, the line)``.
    The child's stderr goes to a log file under the work directory.
    """
    log = open(WORK / "logs" / log_name, "ab")
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=log, env=child_env(),
        cwd=str(ROOT),
    )
    log.close()
    assert proc.stdout is not None
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffer = b""
    try:
        deadline = started + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if not selector.select(timeout=0.5):
                if proc.poll() is not None:
                    break
                continue
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffer += chunk
            for line in buffer.decode(errors="replace").splitlines():
                if line.startswith(marker):
                    return proc, time.perf_counter() - started, line
    finally:
        selector.close()
    stop_process(proc)
    raise RuntimeError(
        f"{command[:4]} never printed {marker!r}; see {WORK / 'logs'}"
    )


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait, SIGKILL if it hangs; always reaps the child."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    if proc.stdout is not None:
        proc.stdout.close()
    return int(proc.returncode)


def setup_samples(code: str, samples: int) -> List[float]:
    """Seconds from launching ``python -c code`` to its ``ready`` line."""
    times = []
    for _ in range(samples):
        proc, elapsed, _line = start_until_ready(
            [sys.executable, "-c", code], "ready", "setup.log"
        )
        times.append(elapsed)
        try:
            status = proc.wait(timeout=READY_TIMEOUT)
        finally:
            stop_process(proc)
        if status != 0:
            raise RuntimeError("set-up probe exited non-zero")
    return times


# -- record stamp -------------------------------------------------------


def _version(module: str) -> Optional[str]:
    try:
        return str(importlib.import_module(module).__version__)
    except ImportError:
        return None


def git_commit() -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    if shutil.which("git") is None:
        return None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def stamp(workload: str, seed: Optional[int], facts: Dict[str, Any]) -> Dict:
    """Host and configuration fields every result record carries."""
    from repro.core.backends import active_backend_name
    from repro.core.sat import sat_byte_budget

    compilers = [os.environ.get("CC"), "cc", "gcc", "clang"]
    record = {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "backend": active_backend_name(),
        "c_compiler": any(c and shutil.which(c) for c in compilers),
        "sat_budget": sat_byte_budget(),
        "git_commit": git_commit(),
    }
    record.update(facts)
    return record
