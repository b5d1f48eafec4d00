#!/usr/bin/env python
"""CI chaos smoke: injected I/O faults must land on real recovery paths.

Three legs, each driven by ``REPRO_IO_FAULTS`` (:mod:`repro.faults.io`)
and each asserting not just survival but that the intended recovery
mechanism fired, via :mod:`repro.obs` counters:

1. **Kill-and-resume** — an ``exit``-mode fault kills a chunked SAT
   build at a tile boundary (the deterministic stand-in for SIGKILL /
   power loss).  The subprocess must die with
   :data:`repro.faults.io.IO_EXIT_STATUS`, leave its partial and
   the partial's manifest behind, and a clean re-run must resume and produce a file
   byte-identical to an uninterrupted reference build.
2. **Corrupt-and-rebuild** — a spilled table is bit-flipped on disk;
   :meth:`repro.core.cache.AllocationCache.mmap_engine` must detect the
   corruption (never map it), rebuild in place, and count
   ``integrity.sat_rebuilds``.
3. **Compile-fault degradation** — the native backend's compile path is
   sabotaged; kernel calls must degrade to the numpy reference with
   ``backend.reference_fallbacks`` counted and bit-identical results.

Usage::

    PYTHONPATH=src python scripts/smoke_chaos.py
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

_REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO / "src"))

from repro.core.grid import Grid  # noqa: E402
from repro.core.integrity import file_sha256, manifest_path  # noqa: E402
from repro.core.registry import get_scheme  # noqa: E402
from repro.core.sat import (  # noqa: E402
    SummedAreaTable,
    build_partial_path,
)
from repro.faults.io import (  # noqa: E402
    IO_EXIT_STATUS,
    IO_FAULTS_ENV,
    IO_FAULTS_STATE_ENV,
)
from repro.obs.metrics import global_registry  # noqa: E402

__all__ = ['main']

GRID_DIMS = (12, 6)
DISKS = 3
#: Forces one-row tiles on GRID_DIMS, so the kill lands mid-build.
BYTE_BUDGET = 400

_BUILD_SCRIPT = """\
import sys
from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable

sat = SummedAreaTable.build_chunked(
    get_scheme("dm"), Grid({dims}), {disks},
    byte_budget={budget}, path=sys.argv[1],
)
sat.close()
print("BUILD-OK")
"""


def _counter(name: str) -> int:
    return global_registry().counter(name)


def _run_build(path: str, env_overrides: dict) -> "subprocess.CompletedProcess":
    env = dict(os.environ)
    env.pop(IO_FAULTS_ENV, None)
    env.pop(IO_FAULTS_STATE_ENV, None)
    env.update(env_overrides)
    env["PYTHONPATH"] = str(_REPO / "src")
    script = _BUILD_SCRIPT.format(
        dims=GRID_DIMS, disks=DISKS, budget=BYTE_BUDGET
    )
    return subprocess.run(
        [sys.executable, "-c", script, path],
        env=env,
        cwd=str(_REPO),
        capture_output=True,
        text=True,
    )


def _check_kill_and_resume(workdir: str) -> "list[str]":
    errors = []
    path = os.path.join(workdir, "repro-sat-chaos.npy")
    reference = os.path.join(workdir, "repro-sat-reference.npy")

    result = _run_build(reference, {})
    if result.returncode != 0:
        return [f"reference build failed: {result.stderr[-300:]}"]

    killed = _run_build(path, {
        IO_FAULTS_ENV: "sat.write:exit:1",
        IO_FAULTS_STATE_ENV: os.path.join(workdir, "fault-state"),
    })
    if killed.returncode != IO_EXIT_STATUS:
        errors.append(
            f"exit-mode fault: expected status {IO_EXIT_STATUS}, got "
            f"{killed.returncode}"
        )
    if not os.path.exists(build_partial_path(path)):
        errors.append("killed build left no .partial to resume from")
    if not os.path.exists(manifest_path(build_partial_path(path))):
        errors.append("killed build left no partial manifest")

    resumed = _run_build(path, {})
    if resumed.returncode != 0 or "BUILD-OK" not in resumed.stdout:
        errors.append(
            f"resume run failed ({resumed.returncode}): "
            f"{resumed.stderr[-300:]}"
        )
    elif file_sha256(path) != file_sha256(reference):
        errors.append(
            "resumed build is not byte-identical to the uninterrupted "
            "reference"
        )
    else:
        print("chaos smoke: kill-and-resume ok (byte-identical)")
    return errors


def _check_corrupt_and_rebuild(workdir: str) -> "list[str]":
    import numpy as np

    from repro.core.cache import AllocationCache

    errors = []
    path = os.path.join(workdir, "repro-sat-corrupt.npy")
    grid = Grid(GRID_DIMS)
    sat = SummedAreaTable.build_chunked(
        get_scheme("dm"), grid, DISKS, byte_budget=BYTE_BUDGET,
        path=path,
    )
    in_ram = np.array(sat.array)
    sat.close()
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) - 21)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x40]))

    os.environ["REPRO_VERIFY"] = "full"
    rebuilds_before = _counter("integrity.sat_rebuilds")
    try:
        cache = AllocationCache()
        engine = cache.mmap_engine(
            "dm", grid, DISKS, path, byte_budget=BYTE_BUDGET
        )
        if not np.array_equal(np.asarray(engine.sat.array), in_ram):
            errors.append("rebuilt table differs from the original")
        if cache.stats().rebuilds != 1:
            errors.append(
                f"cache counted {cache.stats().rebuilds} rebuild(s), "
                f"expected 1"
            )
        if _counter("integrity.sat_rebuilds") != rebuilds_before + 1:
            errors.append("integrity.sat_rebuilds counter did not move")
        engine.sat.close()
    finally:
        os.environ.pop("REPRO_VERIFY", None)
    if not errors:
        print("chaos smoke: corrupt-and-rebuild ok (counters moved)")
    return errors


def _check_compile_degradation(workdir: str) -> "list[str]":
    import numpy as np

    from repro.core.backends.native import CNativeBackend
    from repro.core.backends.numpy_backend import NumpyBackend
    from repro.core.engine import ResponseTimeEngine

    errors = []
    grid = Grid((8, 8))
    allocation = get_scheme("dm").allocate(grid, DISKS)
    sat = ResponseTimeEngine(allocation).sat
    fallbacks_before = _counter("backend.reference_fallbacks")

    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(workdir, "native")
    os.environ[IO_FAULTS_ENV] = "compile"
    try:
        backend = CNativeBackend()
        if backend.available():
            errors.append(
                "cnative claims availability despite a compile fault"
            )
        window = backend.window_response_times(sat, (3, 3))
        reference = NumpyBackend().window_response_times(sat, (3, 3))
        if not np.array_equal(window, reference):
            errors.append("degraded kernel output differs from numpy")
        if _counter("backend.reference_fallbacks") <= fallbacks_before:
            errors.append(
                "backend.reference_fallbacks counter did not move"
            )
    finally:
        os.environ.pop(IO_FAULTS_ENV, None)
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    if not errors:
        print("chaos smoke: compile-fault degradation ok (numpy served)")
    return errors


def main() -> int:
    errors = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        errors.extend(_check_kill_and_resume(workdir))
        errors.extend(_check_corrupt_and_rebuild(workdir))
        errors.extend(_check_compile_degradation(workdir))
    if errors:
        for error in errors:
            print(f"chaos smoke: FAILED — {error}", file=sys.stderr)
        return 1
    resumes = _counter("sat.build_resumes")
    print(
        "chaos smoke: ok — "
        + json.dumps({
            "sat_build_resumes_in_process": resumes,
            "integrity_sat_rebuilds": _counter("integrity.sat_rebuilds"),
            "reference_fallbacks": _counter(
                "backend.reference_fallbacks"
            ),
        })
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
