#!/usr/bin/env python
"""CI regression gate for the batched query engine.

Re-times the random-rectangle batch benchmark
(:func:`benchmarks.bench_kernels.run_batch_bench`) live and fails when
the amortized speedup of ``batch_response_times`` over the legacy
per-query loop drops below the floor on any grid — the regression the
batch path exists to prevent.  The floor is 5x by default
(``REPRO_BENCH_MIN_SPEEDUP`` overrides it, e.g. on very noisy runners).

The native-backend leg re-times every registered kernel backend on the
32³/M=16 sweep: the best non-numpy backend must clear
``REPRO_NATIVE_MIN_SPEEDUP`` (default 3x) over the numpy batch kernel,
skipped with a warning when no compiled backend is available.  A live
chunked summed-area-table build (``REPRO_NATIVE_SMOKE_GRID``, default
96x96x96 under a 4 MiB budget) exercises the tiled beyond-RAM path on
numpy and on each available compiled backend (same tile digests
required), and the committed ``BENCH_native.json`` must record a
completed full-scale 1024³ smoke within its byte budget.

The mapped-table leg requires ``cnative`` to agree bit-for-bit with
the numpy gather over the same memory-mapped (disk-last) table and beat
it by ``REPRO_STREAM_MIN_SPEEDUP`` (default 2x), skipped when no
compiler is available.

The serve leg boots the real ``repro serve`` daemon over a unix
socket via ``serve-bench`` and requires byte-identity of served
answers against the in-process engine on any hardware; the
``REPRO_SERVE_MIN_QPS`` throughput floor (default 50000 queries/sec)
is armed only on runners with 4+ cores.

The verify-overhead leg re-times reopening a spilled SAT with
``REPRO_VERIFY=header`` versus ``off`` followed by a representative
sliding-window sweep: the header ratio must stay at or below
``REPRO_VERIFY_MAX_OVERHEAD`` (default 1.05 — the integrity layer's
≤5% contract).

Also asserts the observability layer's disabled-path contract: a
:func:`repro.obs.trace.trace` span on a hot path must cost effectively
nothing while tracing is off.  The bound is 2000 ns per disabled span by
default — over an order of magnitude above the measured cost, tight
enough to catch an accidental allocation or lock on the disabled path
(``REPRO_OBS_MAX_NS_PER_SPAN`` overrides it).

Finally, the qa gate itself is held to a wall-clock budget: a full
``repro.qa`` run (lint + flow analysis + contracts over src/repro,
scripts/ and benchmarks/) must complete within
``REPRO_QA_MAX_SECONDS`` (default 60).  The whole-project flow pass is
rebuilt from scratch on every run, so this is what keeps the analyzer
cheap enough to sit in every CI job and pre-commit hook.

Usage::

    PYTHONPATH=src python scripts/check_bench_gate.py
"""

import json
import os
import pathlib
import sys
import time

_REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO / "benchmarks"))
sys.path.insert(0, str(_REPO / "src"))

from bench_kernels import (  # noqa: E402
    DEFAULT_NATIVE_JSON,
    NATIVE_SMOKE_GRID,
    NATIVE_SMOKE_GRID_ENV,
    run_batch_bench,
    run_chunked_smoke,
    run_native_bench,
    run_obs_overhead_bench,
    run_stream_bench,
    run_verify_overhead_bench,
)

__all__ = ['main']


def _check_native(floor_env: str) -> "list[str]":
    """The native-backend leg: live kernel floor + chunked-smoke checks.

    Re-times every available backend on the 32³/M=16 sweep and requires
    the best non-numpy backend to clear the floor (default 3x over the
    numpy batch kernel; ``REPRO_NATIVE_MIN_SPEEDUP`` overrides).  When
    only numpy is available (e.g. no compiler on the runner) the floor is skipped with a warning instead of failing —
    the numpy reference is always correct, just slower.  A live chunked
    build then runs on a CI-sized grid (``REPRO_NATIVE_SMOKE_GRID``,
    default 96x96x96 here) under a deliberately tiny budget so the tiled
    path is actually exercised, once on numpy and once more on every
    available compiled backend, whose tile digests must equal numpy's;
    the committed ``BENCH_native.json`` is checked for a completed
    full-scale (1024³ by default) smoke.
    """
    failures = []
    floor = float(os.environ.get(floor_env, "3"))
    record = run_native_bench()
    print(json.dumps(record, indent=2))
    native = [
        entry
        for entry in record["backends"]
        if entry["available"] and entry["backend"] != "numpy"
    ]
    if not native:
        reasons = "; ".join(
            f"{e['backend']}: {e.get('unavailable_reason', '?')}"
            for e in record["backends"]
            if not e["available"]
        )
        print(
            "bench gate: WARNING — no non-numpy backend available, "
            f"native floor skipped ({reasons})",
            file=sys.stderr,
        )
    else:
        best = max(native, key=lambda e: e["batch_speedup_vs_numpy"])
        speedup = best["batch_speedup_vs_numpy"]
        if speedup < floor:
            failures.append(
                f"backend {best['backend']}: batch speedup {speedup}x "
                f"< {floor}x floor over numpy"
            )
        else:
            print(
                f"bench gate: backend {best['backend']} at {speedup}x "
                f"over numpy (floor {floor}x)"
            )
    smoke_grid = os.environ.get(NATIVE_SMOKE_GRID_ENV, "96x96x96")
    dims = tuple(int(part) for part in smoke_grid.lower().split("x"))
    reference = None
    for backend in ["numpy"] + [entry["backend"] for entry in native]:
        smoke = run_chunked_smoke(
            grid_dims=dims, byte_budget=4 << 20, backend=backend
        )
        print(json.dumps(smoke, indent=2))
        where = f"live chunked smoke on {smoke_grid} ({backend})"
        if not smoke["completed"]:
            failures.append(
                f"{where} failed: "
                f"within_budget={smoke['within_budget']} "
                f"volume_ok={smoke['volume_invariant_ok']} "
                f"brute_force_ok={smoke['brute_force_ok']}"
            )
        elif reference is not None and (
            smoke["tile_digests"] != reference["tile_digests"]
        ):
            failures.append(
                f"{where}: table digests differ from the numpy build"
            )
        else:
            print(
                f"bench gate: {where} ok "
                f"({smoke['tile_rows']}-row tiles, "
                f"{smoke['build_seconds']}s)"
            )
        reference = reference or smoke
    if DEFAULT_NATIVE_JSON.exists():
        committed = json.loads(DEFAULT_NATIVE_JSON.read_text())
        full = committed.get("chunked_smoke", {})
        expected = list(NATIVE_SMOKE_GRID)
        if full.get("grid") != expected or not full.get("completed"):
            failures.append(
                f"committed {DEFAULT_NATIVE_JSON.name} lacks a "
                f"completed {'x'.join(map(str, expected))} chunked "
                f"smoke (got grid={full.get('grid')}, "
                f"completed={full.get('completed')})"
            )
        else:
            print(
                "bench gate: committed full-scale chunked smoke ok "
                f"({full['sat_file_bytes']} bytes in "
                f"{full['build_seconds']}s under "
                f"{full['byte_budget']}-byte budget)"
            )
    else:
        print(
            f"bench gate: WARNING — {DEFAULT_NATIVE_JSON} missing, "
            "committed smoke check skipped",
            file=sys.stderr,
        )
    return failures


def _check_stream() -> "list[str]":
    """The mapped-table leg: bit-identity plus the ≥2x floor.

    Over the same memory-mapped disk-last table, ``cnative``'s
    ``batch_rt`` kernel must agree bit-for-bit with the numpy gather
    and beat it by ``REPRO_STREAM_MIN_SPEEDUP`` (default 2x) — both
    are single-threaded, so this floor holds on any core count.
    Skipped with a warning when no C compiler is present, mirroring the
    native-backend leg.
    """
    failures = []
    floor = float(os.environ.get("REPRO_STREAM_MIN_SPEEDUP", "2"))
    record = run_stream_bench()
    print(json.dumps(record, indent=2))
    if not record["native_available"]:
        print(
            "bench gate: WARNING — cnative unavailable "
            f"({record.get('unavailable_reason', '?')}), "
            "mapped-table floor skipped",
            file=sys.stderr,
        )
        return failures
    if not record["bit_identical"]:
        failures.append(
            "cnative disagrees with numpy over the mapped table"
        )
    if record["speedup"] < floor:
        failures.append(
            f"cnative mapped-table speedup {record['speedup']}x < "
            f"{floor}x floor over numpy"
        )
    else:
        print(
            f"bench gate: cnative over the mapped table at "
            f"{record['speedup']}x numpy (floor {floor}x)"
        )
    if DEFAULT_NATIVE_JSON.exists():
        committed = json.loads(DEFAULT_NATIVE_JSON.read_text())
        full = committed.get("stream_kernel", {})
        if full.get("native_available") and (
            not full.get("bit_identical") or full.get("speedup", 0) < floor
        ):
            failures.append(
                f"committed stream_kernel record fails the floor "
                f"(speedup {full.get('speedup')}x, "
                f"bit_identical {full.get('bit_identical')})"
            )
        elif full.get("native_available"):
            print(
                "bench gate: committed stream_kernel ok "
                f"({full.get('speedup')}x, bit-identical)"
            )
    return failures


def _check_serve() -> "list[str]":
    """The serving leg: byte-identity always, a qps floor on big boxes.

    Spins up the real ``repro serve`` daemon through the CLI's
    self-hosting ``serve-bench`` path (subprocess + unix socket — the
    same plumbing a supervisor would run) and reads back the result
    document.  Byte-identity of served answers against the in-process
    engine is unconditional: a single mismatched response fails the
    gate on any hardware.  The throughput floor
    (``REPRO_SERVE_MIN_QPS``, default 50000 queries/sec) is armed only
    on runners with 4+ cores — on smaller boxes the number is pure
    scheduler noise, but the identity contract still holds.  The
    overload burst (4x the connections) must see no transport error
    and no mismatched answer.
    """
    import subprocess
    import tempfile

    failures = []
    floor = float(os.environ.get("REPRO_SERVE_MIN_QPS", "50000"))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "BENCH_serve.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_REPO / "src")]
            + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve-bench",
                "--duration", os.environ.get(
                    "REPRO_SERVE_BENCH_SECONDS", "2"
                ),
                "--batch", "512",
                "--concurrency", "4",
                "--out", out,
            ],
            env=env,
            cwd=str(_REPO),
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            failures.append(
                "serve-bench exited "
                f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
            )
            return failures
        record = json.loads(pathlib.Path(out).read_text())
    print(json.dumps(record, indent=2))
    if record["mismatches"] != 0:
        failures.append(
            f"served answers diverged from the in-process engine "
            f"({record['mismatches']} mismatched batch(es))"
        )
    qps = record["measured"]["queries_per_second"]
    cores = os.cpu_count() or 1
    if cores >= 4:
        if qps < floor:
            failures.append(
                f"serve throughput {qps:.0f} q/s < {floor:.0f} floor"
            )
        else:
            print(
                f"bench gate: serve at {qps:.0f} q/s "
                f"(floor {floor:.0f})"
            )
    else:
        print(
            f"bench gate: serve at {qps:.0f} q/s "
            f"(floor unarmed on {cores} core(s))"
        )
    return failures


def main() -> int:
    floor = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5"))
    obs_ceiling = float(
        os.environ.get("REPRO_OBS_MAX_NS_PER_SPAN", "2000")
    )
    record = run_batch_bench()
    print(json.dumps(record, indent=2))
    failures = []
    for grid_record in record["grids"]:
        speedup = grid_record["speedup_amortized"]
        grid = "x".join(str(d) for d in grid_record["grid"])
        if speedup < floor:
            failures.append(
                f"grid {grid}: amortized speedup {speedup}x < {floor}x"
            )
        else:
            print(f"bench gate: grid {grid} at {speedup}x (floor {floor}x)")
    failures.extend(_check_native(floor_env="REPRO_NATIVE_MIN_SPEEDUP"))
    failures.extend(_check_stream())
    failures.extend(_check_serve())
    verify_ceiling = float(
        os.environ.get("REPRO_VERIFY_MAX_OVERHEAD", "1.05")
    )
    verify_record = run_verify_overhead_bench()
    print(json.dumps(verify_record, indent=2))
    verify_ratio = verify_record["open_query_overhead_ratio"]
    if verify_ratio > verify_ceiling:
        failures.append(
            f"REPRO_VERIFY=header costs {verify_ratio}x on open+sweep "
            f"> {verify_ceiling}x ceiling"
        )
    else:
        print(
            f"bench gate: header verification at {verify_ratio}x on "
            f"open+sweep (ceiling {verify_ceiling}x)"
        )
    obs_record = run_obs_overhead_bench()
    print(json.dumps(obs_record, indent=2))
    ns_per_span = obs_record["ns_per_disabled_span"]
    if ns_per_span > obs_ceiling:
        failures.append(
            f"disabled tracer span costs {ns_per_span}ns "
            f"> {obs_ceiling}ns ceiling"
        )
    else:
        print(
            f"bench gate: disabled span at {ns_per_span}ns "
            f"(ceiling {obs_ceiling}ns)"
        )
    qa_budget = float(os.environ.get("REPRO_QA_MAX_SECONDS", "60"))
    from repro.qa.diagnostics import Baseline
    from repro.qa.runner import run_qa

    start = time.perf_counter()
    report = run_qa(baseline=Baseline.load(_REPO / "qa_baseline.json"))
    qa_elapsed = time.perf_counter() - start
    if qa_elapsed > qa_budget:
        failures.append(
            f"full qa run took {qa_elapsed:.1f}s "
            f"> {qa_budget:.0f}s budget"
        )
    else:
        print(
            f"bench gate: full qa run ({len(report.findings)} finding(s) "
            f"pre-baseline) in {qa_elapsed:.1f}s (budget {qa_budget:.0f}s)"
        )
    if failures:
        for failure in failures:
            print(f"bench gate: FAILED — {failure}", file=sys.stderr)
        return 1
    print("bench gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
