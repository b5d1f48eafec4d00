"""Command-line interface: ``python -m repro`` / ``repro-decluster``.

Subcommands
-----------
``schemes``
    List registered declustering schemes.
``allocate``
    Materialize one scheme on a grid; print the table and load statistics.
``evaluate``
    Compare schemes on a query shape or area (mean RT over all placements).
``experiment``
    Run a paper experiment (E1, E2, E3, E4, E5, X1, or ``all``).
``theory``
    Strict-optimality tools: ``search`` (existence/impossibility per M) and
    ``table`` (the paper's Table 1).
``qa``
    Quality gate: repo-specific AST lint rules plus the scheme-contract
    checker; exits nonzero on findings outside the baseline.
``obs``
    Observability tools: ``obs summary`` renders the metrics/trace files
    an instrumented run exported (``experiment ... --trace FILE
    --metrics-out FILE --log-level LEVEL``).

Examples
--------
::

    python -m repro evaluate --grid 32x32 --disks 16 --shape 2x2
    python -m repro experiment E4 --quick
    python -m repro theory search --max-disks 7
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.grid import Grid
from repro.core.registry import (
    PAPER_SCHEMES,
    available_schemes,
    get_scheme,
    scheme_label,
)

__all__ = [
    "build_parser",
    "main",
]


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected AxBx... integers, got {text!r}"
        ) from None
    if not dims or any(d <= 0 for d in dims):
        raise argparse.ArgumentTypeError(
            f"extents must be positive integers, got {text!r}"
        )
    return dims


def _parse_schemes(text: str) -> List[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    known = set(available_schemes())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown scheme(s) {unknown}; known: {sorted(known)}"
        )
    return names


def _cmd_schemes(_args) -> int:
    for name in available_schemes():
        scheme = get_scheme(name)
        print(f"{name:12s} {scheme_label(name):10s} {scheme.describe()}")
    return 0


def _cmd_allocate(args) -> int:
    grid = Grid(args.grid)
    scheme = get_scheme(args.scheme)
    allocation = scheme.allocate(grid, args.disks)
    loads = allocation.disk_loads()
    print(
        f"scheme={args.scheme} grid={grid.dims} disks={args.disks} "
        f"balanced={allocation.is_storage_balanced()} "
        f"loads min/max={loads.min()}/{loads.max()}"
    )
    if args.show:
        if grid.ndim != 2:
            print("(table display is 2-d only)")
        else:
            for row in allocation.table:
                print(" ".join(f"{int(d):>2d}" for d in row))
    if args.save is not None:
        from repro.io import save_allocation

        save_allocation(allocation, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core.evaluator import SchemeEvaluator, rank_schemes
    from repro.core.exceptions import SchemeNotApplicableError

    grid = Grid(args.grid)
    schemes = args.schemes
    if schemes is None:
        # The paper's set mixes preconditions (ECC needs a power-of-two
        # M): rank the schemes that apply rather than abort on one.
        schemes = []
        for name in PAPER_SCHEMES:
            try:
                get_scheme(name).check_applicable(grid, args.disks)
            except SchemeNotApplicableError as exc:
                print(f"skipped {name}: {exc}", file=sys.stderr)
            else:
                schemes.append(name)
    evaluator = SchemeEvaluator(grid, args.disks, schemes)
    if args.shape is not None:
        results = evaluator.evaluate_shapes([args.shape])
        what = f"shape {args.shape}"
    elif args.area is not None:
        results = evaluator.evaluate_area(args.area)
        what = f"area {args.area} (all shapes)"
    else:
        print("evaluate: provide --shape or --area", file=sys.stderr)
        return 2
    print(
        f"grid={grid.dims} disks={args.disks} query {what} "
        f"(mean over all placements)"
    )
    for result in rank_schemes(results):
        print(
            f"  {result.label:10s} meanRT={result.mean_response_time:8.4f} "
            f"opt={result.mean_optimal:8.4f} "
            f"dev={result.mean_relative_deviation:+7.4f} "
            f"frac_opt={result.fraction_optimal:6.4f}"
        )
    return 0


def _setup_obs(args) -> None:
    """Apply the observability flags before an experiment run."""
    if getattr(args, "log_level", None):
        from repro.obs.log import configure_logging

        configure_logging(args.log_level)
    if getattr(args, "trace", None):
        from repro.obs.trace import global_tracer

        global_tracer().enable()


def _finish_obs(args) -> None:
    """Export the trace/metrics files an instrumented run produced."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if trace_path:
        from repro.obs.trace import global_tracer

        count = global_tracer().write_jsonl(trace_path)
        print(
            f"trace: {count} span(s) written to {trace_path}",
            file=sys.stderr,
        )
    if metrics_path:
        from repro.core.cache import global_cache
        from repro.obs.metrics import global_registry

        registry = global_registry()
        global_cache().publish_metrics(registry)
        registry.write_json(metrics_path)
        print(f"metrics written to {metrics_path}", file=sys.stderr)


def _print_cache_stats(args) -> None:
    if getattr(args, "cache_stats", False):
        from repro.core.cache import global_cache

        cache = global_cache()
        print(cache.stats().render(), file=sys.stderr)
        for entry in cache.entry_report():
            dims = "x".join(str(d) for d in entry["dims"])
            engine = (
                f"engine={entry['engine_nbytes']}B"
                if entry["engine_built"]
                else "engine=unbuilt"
            )
            resident = entry.get("resident_nbytes")
            footprint = (
                f"mapped={entry['mapped_nbytes']}B "
                f"resident="
                + (f"{resident}B" if resident is not None else "unknown")
            )
            kind = entry.get("kind", "table")
            print(
                f"  {entry['scheme']:10s} grid={dims} M={entry['num_disks']} "
                f"dtype={entry['table_dtype']} kind={kind} "
                f"table={entry['table_nbytes']}B {engine} "
                + footprint,
                file=sys.stderr,
            )


#: Default checkpoint location for ``experiment all --resume``.
DEFAULT_CHECKPOINT = ".repro-runner-checkpoint.pkl"


def _runner_kwargs(args) -> dict:
    """``run_all`` options of an ``experiment all`` invocation."""
    checkpoint = args.checkpoint
    if checkpoint is None and args.resume:
        checkpoint = DEFAULT_CHECKPOINT
    return {
        "quick": args.quick,
        "checkpoint": checkpoint,
        "resume": args.resume,
    }


def _cmd_experiment(args) -> int:
    from repro.experiments import runner
    from repro.experiments.reporting import render_table

    wanted = args.which.upper()
    if wanted == "DEGRADED":
        wanted = "X7"
    if wanted not in runner.EXPERIMENT_KEYS + ("X6", "ALL"):
        print(
            f"unknown experiment {args.which!r}; "
            f"known: E1 E2 E3 E4 E5 X1 EPM X3 X4 X5 X6 X7 "
            f"degraded THM all",
            file=sys.stderr,
        )
        return 2
    if wanted != "ALL" and (args.checkpoint is not None or args.resume):
        print(
            "--checkpoint/--resume describe a whole-suite run; "
            "use them with 'experiment all'",
            file=sys.stderr,
        )
        return 2
    _setup_obs(args)
    if wanted == "X6":
        from repro.experiments import exp_growth

        rows = exp_growth.run(
            num_records=400 if args.quick else 1500,
            bucket_capacity=16,
        )
        print(exp_growth.render(rows))
        _finish_obs(args)
        return 0
    if wanted == "ALL":
        print(runner.render_all(runner.run_all(**_runner_kwargs(args))))
        _finish_obs(args)
        _print_cache_stats(args)
        return 0
    result = runner.run_experiment(wanted, args.quick)
    _finish_obs(args)
    exportable = []
    if wanted == "THM":
        print(runner.render_thm(result))
        print()
    elif wanted == "E3":
        exportable = [result.result_2d, result.result_3d]
        print(render_table(result.result_2d))
        print()
        print(render_table(result.result_3d))
        print()
    else:
        # E4 and X7 return their result pair (E4a/E4b, X7a/X7b).
        exportable = list(result) if wanted in ("E4", "X7") else [result]
        for series in exportable:
            print(render_table(series))
            print()
    if args.csv is not None or args.json is not None:
        if not exportable:
            print(
                f"experiment {args.which!r} has no tabular series to "
                "export",
                file=sys.stderr,
            )
            return 2
        from repro.experiments.reporting import to_csv
        from repro.io import save_result

        for result in exportable:
            suffix = (
                "" if len(exportable) == 1
                else f".{result.experiment_id}"
            )
            if args.csv is not None:
                path = args.csv + suffix
                with open(path, "w") as stream:
                    stream.write(to_csv(result))
                print(f"csv written to {path}")
            if args.json is not None:
                path = args.json + suffix
                save_result(result, path)
                print(f"json written to {path}")
    _print_cache_stats(args)
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.render import render_allocation_profile

    grid = Grid(args.grid)
    scheme = get_scheme(args.scheme)
    allocation = scheme.allocate(grid, args.disks)
    shape = args.shape if args.shape is not None else tuple(
        min(2, d) for d in grid.dims
    )
    print(
        f"profile: scheme={args.scheme} grid={grid.dims} "
        f"disks={args.disks} shape={tuple(shape)}"
    )
    print(render_allocation_profile(allocation, shape))
    return 0


def _cmd_obs(args) -> int:
    from repro.obs.summary import render_summary_files

    if args.metrics is None and args.trace is None:
        print(
            "obs summary: provide --metrics and/or --trace",
            file=sys.stderr,
        )
        return 2
    try:
        print(
            render_summary_files(
                metrics_path=args.metrics, trace_path=args.trace
            )
        )
    except ValueError as exc:
        print(f"obs summary: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_qa(args) -> int:
    from repro.qa.runner import run_from_args

    return run_from_args(args)


def _cmd_doctor(args) -> int:
    import json as _json

    from repro.doctor import run_doctor

    report = run_doctor(
        sat_dir=args.sat_dir,
        native_cache=args.native_cache,
        level=args.verify,
        gc=args.gc,
    )
    if args.json:
        print(_json.dumps(report.to_json(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code()


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import ServeConfig, parse_spec, run_server

    config = ServeConfig(
        specs=[parse_spec(text) for text in args.spec],
        unix_path=args.unix,
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
        metrics_out=args.metrics_out,
    )
    if args.log_level:
        from repro.obs.log import configure_logging

        configure_logging(level=args.log_level)
    asyncio.run(run_server(config))
    return 0


def _cmd_serve_bench(args) -> int:
    import json as _json
    import os as _os
    import signal as _signal
    import subprocess
    import tempfile
    import time as _time

    from repro.serve.bench import BenchConfig, run_bench
    from repro.serve.client import ServeClient
    from repro.serve.server import parse_spec

    spec_text = args.spec
    spec = parse_spec(spec_text)
    config = BenchConfig(
        scheme=spec.scheme,
        dims=spec.dims,
        num_disks=spec.num_disks,
        batch=args.batch,
        duration=args.duration,
        concurrency=args.concurrency,
        seed=args.seed,
        unix_path=args.connect,
        out=args.out,
    )
    daemon = None
    socket_path = args.connect
    try:
        if socket_path is None:
            # Start our own daemon on a private unix socket.
            socket_path = tempfile.mktemp(
                prefix="repro-serve-bench-", suffix=".sock"
            )
            config.unix_path = socket_path
            command = [
                sys.executable, "-m", "repro.cli", "serve",
                "--spec", spec_text,
                "--unix", socket_path,
            ]
            if args.backend:
                command[3:3] = ["--backend", args.backend]
            # The daemon's ready line would land in the bench's own
            # output (``| head -1`` would read it, not the summary);
            # its errors still reach stderr.
            daemon = subprocess.Popen(command, stdout=subprocess.DEVNULL)
            deadline = _time.monotonic() + 120
            while _time.monotonic() < deadline:
                if daemon.poll() is not None:
                    print(
                        "error: serve daemon exited "
                        f"{daemon.returncode} during startup",
                        file=sys.stderr,
                    )
                    return 1
                if _os.path.exists(socket_path):
                    try:
                        with ServeClient(unix_path=socket_path) as c:
                            c.ping()
                        break
                    except OSError:
                        pass
                _time.sleep(0.1)
            else:
                print("error: serve daemon never came up", file=sys.stderr)
                return 1
        result = run_bench(config)
        measured = result["measured"]
        try:
            print(
                f"serve-bench: {measured['queries']} queries in "
                f"{measured['elapsed_s']:.2f}s = "
                f"{measured['queries_per_second']:,.0f} q/s  "
                f"p50={measured['latency_p50_s'] * 1e3:.2f}ms "
                f"p99={measured['latency_p99_s'] * 1e3:.2f}ms"
            )
            if args.out:
                print(f"results written to {args.out}")
            else:
                print(_json.dumps(result, indent=2))
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader is gone (``| head -1``).  As the CPython docs
            # advise, point stdout at devnull so the exit-time flush
            # cannot raise again; the daemon still stops below.
            devnull = _os.open(_os.devnull, _os.O_WRONLY)
            _os.dup2(devnull, sys.stdout.fileno())
            _os.close(devnull)
            return 1
        return 0
    finally:
        if daemon is not None:
            daemon.send_signal(_signal.SIGTERM)
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=10)
        if (
            args.connect is None
            and socket_path
            and _os.path.exists(socket_path)
        ):
            _os.unlink(socket_path)


def _cmd_theory(args) -> int:
    from repro.theory.conditions import render_table as render_conditions
    from repro.theory.search import impossibility_frontier

    if args.theory_command == "table":
        print(render_conditions())
        return 0
    results = impossibility_frontier(
        max_disks=args.max_disks, grid_side=args.side
    )
    for num_disks, result in enumerate(results, start=1):
        side = args.side if args.side else max(num_disks, 2)
        verdict = "exists" if result.exists else "impossible"
        print(
            f"M={num_disks:2d} grid {side}x{side}: strictly optimal "
            f"declustering {verdict} ({result.nodes_explored} nodes)"
        )
        if result.exists and args.show and result.allocation is not None:
            for row in result.allocation.table:
                print("   " + " ".join(f"{int(d):>2d}" for d in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-decluster",
        description=(
            "Grid-based multi-attribute declustering: methods, theory, and "
            "the ICDE'94 evaluation"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        help=(
            "kernel backend for hot loops: numpy, cnative; default: "
            "$REPRO_BACKEND or numpy"
        ),
    )
    parser.add_argument(
        "--sat-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "working-memory byte budget for chunked summed-area-table "
            "builds (default: $REPRO_SAT_BUDGET or 256 MiB)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list declustering schemes")

    p_alloc = sub.add_parser("allocate", help="materialize one allocation")
    p_alloc.add_argument("--grid", type=_parse_dims, default=(8, 8))
    p_alloc.add_argument("--disks", type=int, default=4)
    p_alloc.add_argument("--scheme", default="hcam")
    p_alloc.add_argument(
        "--show", action="store_true", help="print the disk-id table"
    )
    p_alloc.add_argument(
        "--save", default=None, help="write the allocation to a JSON file"
    )

    p_eval = sub.add_parser("evaluate", help="compare schemes on queries")
    p_eval.add_argument("--grid", type=_parse_dims, default=(32, 32))
    p_eval.add_argument("--disks", type=int, default=16)
    p_eval.add_argument(
        "--schemes",
        type=_parse_schemes,
        default=None,
        help=(
            "comma-separated schemes (default: the paper's, skipping "
            "any that do not apply to the grid and disk count)"
        ),
    )
    p_eval.add_argument("--shape", type=_parse_dims, default=None)
    p_eval.add_argument("--area", type=int, default=None)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument(
        "which",
        help=(
            "E1, E2, E3, E4, E5, X1, EPM, X3, X4, X5, X7 (alias: "
            "'degraded'), THM, or 'all'"
        ),
    )
    p_exp.add_argument(
        "--quick", action="store_true", help="small fast configuration"
    )
    p_exp.add_argument(
        "--csv", default=None, help="also write the series as CSV"
    )
    p_exp.add_argument(
        "--json", default=None, help="also write the series as JSON"
    )
    p_exp.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "persist completed experiments to this file as they finish "
            f"(default with --resume: {DEFAULT_CHECKPOINT})"
        ),
    )
    p_exp.add_argument(
        "--resume",
        action="store_true",
        help=(
            "load the checkpoint and skip already-completed experiments; "
            "also enables checkpointing for the rest of the run"
        ),
    )
    p_exp.add_argument(
        "--cache-stats",
        action="store_true",
        help=(
            "print allocation-cache counters plus per-entry table dtype, "
            "sizes, and mapped/resident bytes to stderr"
        ),
    )
    p_exp.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record spans (experiments, engine, planner, simulator) "
            "and write them as JSONL to FILE"
        ),
    )
    p_exp.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write counters and histograms as JSON to FILE"
        ),
    )
    p_exp.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help=(
            "emit library logs (SAT rebuilds, build resumes, ...) to "
            "stderr at LEVEL (debug, info, warning, ...)"
        ),
    )

    p_profile = sub.add_parser(
        "profile", help="diagnose one scheme's allocation"
    )
    p_profile.add_argument("--grid", type=_parse_dims, default=(16, 16))
    p_profile.add_argument("--disks", type=int, default=8)
    p_profile.add_argument("--scheme", default="hcam")
    p_profile.add_argument(
        "--shape",
        type=_parse_dims,
        default=None,
        help="query shape to profile (default: 2x2...)",
    )

    from repro.qa.runner import add_qa_arguments

    p_qa = sub.add_parser(
        "qa", help="run the lint + scheme-contract quality gate"
    )
    add_qa_arguments(p_qa)

    p_obs = sub.add_parser(
        "obs", help="observability: summarize trace/metrics exports"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_summary = obs_sub.add_parser(
        "summary",
        help="render a run's --metrics-out / --trace files",
    )
    p_obs_summary.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="metrics JSON written by --metrics-out",
    )
    p_obs_summary.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="span JSONL written by --trace",
    )

    p_doctor = sub.add_parser(
        "doctor",
        help=(
            "scan SAT/native artifacts for corruption and "
            "crash leftovers; --gc cleans them up"
        ),
    )
    p_doctor.add_argument(
        "--sat-dir",
        default=None,
        metavar="DIR",
        help="SAT spill directory (default: $REPRO_SAT_DIR or tempdir)",
    )
    p_doctor.add_argument(
        "--native-cache",
        default=None,
        metavar="DIR",
        help=(
            "compiled-kernel cache directory "
            "(default: $REPRO_NATIVE_CACHE or the per-user temp cache)"
        ),
    )
    p_doctor.add_argument(
        "--verify",
        default="full",
        choices=("header", "full"),
        help="verification depth for the scan (default: full)",
    )
    p_doctor.add_argument(
        "--gc",
        action="store_true",
        help="remove corrupt artifacts and crash leftovers",
    )
    p_doctor.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report",
    )

    p_serve = sub.add_parser(
        "serve",
        help=(
            "run the declustering daemon: preload schemes once, answer "
            "disk_of/batch/degraded-plan queries over a socket"
        ),
    )
    p_serve.add_argument(
        "--spec",
        action="append",
        required=True,
        metavar="SCHEME:GRID:M",
        help="preload this triple, e.g. ecc:16x16:8 (repeatable)",
    )
    p_serve.add_argument(
        "--unix", default=None, metavar="PATH", help="unix socket path"
    )
    p_serve.add_argument(
        "--host", default=None, help="TCP bind host (with --port)"
    )
    p_serve.add_argument(
        "--port", type=int, default=0, help="TCP bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="grace period for in-flight requests on SIGTERM",
    )
    p_serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write serve counters/latency histograms as JSON at drain",
    )
    p_serve.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="emit server logs to stderr at LEVEL",
    )

    p_serve_bench = sub.add_parser(
        "serve-bench",
        help=(
            "closed-loop load generator against the serve daemon "
            "(starts one unless --connect)"
        ),
    )
    p_serve_bench.add_argument(
        "--spec",
        default="ecc:16x16:8",
        metavar="SCHEME:GRID:M",
        help="triple to load-test (default: ecc:16x16:8)",
    )
    p_serve_bench.add_argument(
        "--connect",
        default=None,
        metavar="PATH",
        help="bench an already-running daemon on this unix socket",
    )
    p_serve_bench.add_argument(
        "--duration", type=float, default=5.0, help="measured seconds"
    )
    p_serve_bench.add_argument(
        "--batch", type=int, default=1024, help="queries per request"
    )
    p_serve_bench.add_argument(
        "--concurrency", type=int, default=2, help="closed-loop connections"
    )
    p_serve_bench.add_argument(
        "--seed", type=int, default=2024, help="request-pool RNG seed"
    )
    p_serve_bench.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write p50/p99/throughput JSON here",
    )

    p_theory = sub.add_parser("theory", help="strict-optimality tools")
    theory_sub = p_theory.add_subparsers(
        dest="theory_command", required=True
    )
    p_search = theory_sub.add_parser(
        "search", help="existence search per disk count"
    )
    p_search.add_argument("--max-disks", type=int, default=7)
    p_search.add_argument(
        "--side", type=int, default=None, help="grid side (default: M)"
    )
    p_search.add_argument(
        "--show", action="store_true", help="print found allocations"
    )
    theory_sub.add_parser("table", help="print the paper's Table 1")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (bad configurations, inapplicable schemes, malformed
    files) are reported as one-line messages with exit code 1 instead of
    tracebacks; genuine bugs still raise.
    """
    from repro.core.exceptions import DeclusteringError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.sat_budget is not None:
        import os

        from repro.core.sat import BYTE_BUDGET_ENV

        if args.sat_budget <= 0:
            print("error: --sat-budget must be positive", file=sys.stderr)
            return 1
        # Env rather than plumbing: sat_byte_budget() reads it, so
        # every build path sees the budget.
        os.environ[BYTE_BUDGET_ENV] = str(args.sat_budget)
    handlers = {
        "schemes": _cmd_schemes,
        "allocate": _cmd_allocate,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "profile": _cmd_profile,
        "theory": _cmd_theory,
        "qa": _cmd_qa,
        "obs": _cmd_obs,
        "doctor": _cmd_doctor,
        "serve": _cmd_serve,
        "serve-bench": _cmd_serve_bench,
    }
    try:
        if args.backend is not None:
            from repro.core.backends import set_backend

            # Eager: an unknown/unavailable backend fails here with a
            # one-line error instead of mid-experiment.
            set_backend(args.backend)
        return handlers[args.command](args)
    except DeclusteringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
