#!/usr/bin/env python
"""Smoke-test the runner's crash -> checkpoint -> resume round trip.

Drives the real CLI end to end, the way an operator would experience a
mid-suite crash:

1. run ``experiment all --quick`` with an injected failure at X5
   (``REPRO_IO_FAULTS=experiment.X5``) and a checkpoint file — the run
   must *fail* and leave the completed experiments checkpointed;
2. re-run with ``--resume`` and no faults — the run must succeed,
   reusing the checkpoint;
3. run a clean serial suite and require the resumed report to match it
   byte for byte; the checkpoint must be gone afterwards.

Exit status 0 only if every step behaves.  Used by
``scripts/check_all.sh`` and CI as the degraded-mode/resume gate.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

__all__ = ['CLI', 'REPO', 'fail', 'main', 'run_cli']

REPO = pathlib.Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-m", "repro", "experiment", "all", "--quick"]


def run_cli(extra, fault_spec=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src")
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    env.pop("REPRO_IO_FAULTS", None)
    env.pop("REPRO_IO_FAULTS_STATE", None)
    if fault_spec is not None:
        env["REPRO_IO_FAULTS"] = fault_spec
    return subprocess.run(
        CLI + extra,
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def fail(message):
    print(f"smoke_resume: FAILED — {message}", file=sys.stderr)
    return 1


def main():
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = pathlib.Path(tmp) / "runner-checkpoint.pkl"

        crashed = run_cli(
            ["--checkpoint", str(checkpoint)],
            fault_spec="experiment.X5",
        )
        if crashed.returncode == 0:
            return fail("sabotaged run unexpectedly succeeded")
        if not checkpoint.exists():
            return fail("no checkpoint left behind by the crashed run")

        resumed = run_cli(["--checkpoint", str(checkpoint), "--resume"])
        if resumed.returncode != 0:
            return fail(
                f"resume run failed:\n{resumed.stderr}"
            )
        if checkpoint.exists():
            return fail("checkpoint not cleared after a successful resume")

        clean = run_cli([])
        if clean.returncode != 0:
            return fail(f"clean run failed:\n{clean.stderr}")
        if resumed.stdout != clean.stdout:
            return fail("resumed report differs from the clean report")

    print(
        "smoke_resume: ok — crash checkpointed, resume byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
