#!/usr/bin/env python3
"""The repository benchmark: end-to-end workloads and a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``suite`` — the full paper report, in-process (workload_suite.py);
* ``serve-batch`` / ``serve-plan`` — closed-loop load on the serve
  daemon (workload_serve.py);
* ``spill`` — a chunked SAT build beyond its byte budget, reopened
  mapped and queried (workload_spill.py).

``--trace 0`` measures the ``end_to_end`` metrics with the program
untouched.  ``--trace 1`` installs the timing shims of shims.py around
each layer's public functions and reports the ``per_layer`` metrics; it
also writes a Chrome trace-event file under ``.perfbench_work/traces/``
(open it in Perfetto).

Every metric is printed on stderr with its unit and sample count, the
full result record (host and configuration stamp included) is written
under ``.perfbench_work/records/``, and the last stdout line is the JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402 — needs the path above
    ROOT,
    SRC,
    WORK,
    Outcome,
    child_env,
    prepare_process,
    read_declared,
    stamp,
)

__all__ = ["WORKLOADS", "main", "run_workload"]

WORKLOADS = ("suite", "serve-batch", "serve-plan", "spill")


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool
) -> Outcome:
    """Run one workload in this process."""
    if workload == "suite":
        import workload_suite

        return workload_suite.run(seed, seconds, traced)
    if workload == "spill":
        import workload_spill

        return workload_spill.run(seed, seconds, traced)
    import workload_serve

    phase = workload.split("-", 1)[1]
    return workload_serve.run(phase, seed, seconds, traced)


def _declared_metrics(traced: bool) -> Dict[str, str]:
    declared = read_declared()
    key = "per_layer" if traced else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in declared[key]}


def _report(workload: str, seed: int, seconds: float, traced: bool) -> int:
    units = _declared_metrics(traced)
    outcome = run_workload(workload, seed, seconds, traced)
    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(
            f"declared metrics not measured: {sorted(missing)}"
        )
    record = stamp(workload, seed, outcome.facts)
    record.update({
        "trace": int(traced),
        "seconds": seconds,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_frac": outcome.failed / outcome.attempted,
        "metrics": {
            name: {
                "value": outcome.metrics[name][0],
                "unit": unit,
                "samples": outcome.metrics[name][1],
            }
            for name, unit in units.items()
        },
        # Measured but not declared, so not gated (see BENCHMARK.json).
        "recorded": {
            name: {"value": value, "samples": samples}
            for name, (value, samples) in outcome.metrics.items()
            if name not in units
        },
    })
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    if outcome.trace is not None:
        path = WORK / "traces" / f"{tag}.trace.json"
        path.write_text(json.dumps(outcome.trace))
        record["trace_file"] = str(path)
        print(f"{workload}: Chrome trace written to {path}", file=sys.stderr)
    (WORK / "records" / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    for name, entry in record["metrics"].items():
        print(
            f"{workload:12s} {name:28s} {entry['value']:>14.6g} "
            f"{entry['unit']:10s} n={entry['samples']}",
            file=sys.stderr,
        )
    for name, entry in record["recorded"].items():
        print(
            f"{workload:12s} {name:28s} {entry['value']:>14.6g} "
            f"{'':10s} n={entry['samples']} (recorded, not gated)",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    }))
    return 0


def _run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in a fresh process."""
    code = 0
    for workload in WORKLOADS:
        result = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
            text=True, check=False,
        )
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            print(f"{workload}: failed (exit {result.returncode})",
                  file=sys.stderr)
            code = 1
            continue
        if not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    prepare_process()
    started = time.perf_counter()
    if args.workload == "all":
        code = _run_all(args.seed, args.seconds)
    else:
        code = _report(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(f"[{args.workload} finished in {time.perf_counter() - started:.1f}s]",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
