#!/usr/bin/env python
"""CI validator for the observability exports of an instrumented run.

Checks that a ``--trace`` JSONL file and a ``--metrics-out`` JSON file
written by ``repro-decluster experiment`` are well-formed:

* every JSONL line is a JSON object carrying exactly the span schema
  (:data:`repro.obs.trace.SPAN_FIELDS`), with sane types and
  non-negative durations;
* a ``runner.experiment`` span exists for **every** experiment key —
  an instrumented run that silently skips an experiment is a bug;
* parent/child span ids are consistent (every non-null ``parent_id``
  names a span from the same process);
* every X5 ``runner.experiment`` span holds exactly one
  ``simulation.sweep`` span per X5 scheme — one span per sweep, never
  one per rate or per query;
* every X4, X5, X7 and EPM ``runner.experiment`` span holds at least
  one ``workload.batch`` span (one per batch-builder call, carrying its
  ``kind`` and ``num_queries``) — those experiments build their
  workloads as query batches;
* the metrics document has the current schema and its ``aggregate``
  section covers the allocation-cache counters;
* with ``--expect-counter NAME[:MIN]`` (repeatable), the named
  aggregate counter must be present with at least ``MIN`` (default 1)
  — the chaos leg uses this to prove recovery paths actually fired
  (``integrity.sat_rebuilds``, ...), not merely
  that the run survived;
* with ``--counters-only``, only the metrics document layout and the
  ``--expect-counter`` expectations are checked — for exports written
  by non-experiment processes (the serve smoke passes the metrics file
  as the sole positional).

Usage::

    PYTHONPATH=src python scripts/check_obs_output.py \
        trace.jsonl metrics.json [--expect-counter NAME[:MIN] ...]
"""

import argparse
import json
import sys

from repro.experiments.exp_load_sweep import DEFAULT_SCHEMES
from repro.experiments.runner import EXPERIMENT_KEYS
from repro.obs.metrics import METRICS_SCHEMA_VERSION
from repro.obs.summary import load_metrics, load_trace
from repro.obs.trace import SPAN_FIELDS, TRACE_SCHEMA_VERSION

__all__ = ['BATCH_EXPERIMENTS', 'BATCH_KINDS', 'check_batch_spans',
           'check_metrics', 'check_sweep_spans', 'check_trace', 'main',
           'parse_counter_expectation']

#: Experiments whose workloads come from the batch builders.
BATCH_EXPERIMENTS = ("X4", "X5", "X7", "EPM")

#: The ``kind`` attribute of each batch builder's ``workload.batch`` span.
BATCH_KINDS = ("placements", "random", "partial_match")

#: Field -> accepted types, for every JSONL line.
_FIELD_TYPES = {
    "schema": (int,),
    "kind": (str,),
    "name": (str,),
    "span_id": (str,),
    "parent_id": (str, type(None)),
    "pid": (int,),
    "wall_start": (int, float),
    "duration_s": (int, float),
    "attrs": (dict,),
}


def check_trace(path, errors):
    spans = load_trace(path)
    if not spans:
        errors.append(f"{path}: empty trace")
        return
    ids_by_pid = {}
    for index, span in enumerate(spans, start=1):
        where = f"{path}: span {index}"
        extra = set(span) - set(SPAN_FIELDS)
        missing = set(SPAN_FIELDS) - set(span)
        if extra or missing:
            errors.append(
                f"{where}: bad fields (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
            continue
        for field, types in _FIELD_TYPES.items():
            if not isinstance(span[field], types):
                errors.append(
                    f"{where}: field {field!r} has type "
                    f"{type(span[field]).__name__}"
                )
        if span["schema"] != TRACE_SCHEMA_VERSION:
            errors.append(f"{where}: schema {span['schema']}")
        if span["kind"] not in ("span", "event"):
            errors.append(f"{where}: kind {span['kind']!r}")
        if isinstance(span["duration_s"], (int, float)):
            if span["duration_s"] < 0:
                errors.append(f"{where}: negative duration")
        ids_by_pid.setdefault(span["pid"], set()).add(span["span_id"])

    for index, span in enumerate(spans, start=1):
        parent = span.get("parent_id")
        if parent and parent not in ids_by_pid.get(span.get("pid"), ()):
            errors.append(
                f"{path}: span {index}: parent_id {parent!r} names no "
                f"span from pid {span.get('pid')}"
            )

    check_sweep_spans(path, spans, errors)
    check_batch_spans(path, spans, errors)
    traced_keys = {
        span["attrs"].get("key")
        for span in spans
        if span.get("name") == "runner.experiment"
    }
    missing_keys = [
        key for key in EXPERIMENT_KEYS if key not in traced_keys
    ]
    if missing_keys:
        errors.append(
            f"{path}: no runner.experiment span for {missing_keys}"
        )
    print(
        f"obs check: {path}: {len(spans)} span(s), "
        f"{len(ids_by_pid)} process(es), experiments "
        f"{sorted(k for k in traced_keys if k)}"
    )


def _owner_counts(spans, name, keys):
    """``{(pid, experiment span id): count}`` of ``name`` spans under ``keys``.

    A span belongs to the nearest enclosing ``runner.experiment`` span;
    only experiments whose ``key`` attribute is in ``keys`` are counted.
    """
    by_id = {(span["pid"], span["span_id"]): span for span in spans}

    def experiment_of(span):
        while span is not None and span.get("name") != "runner.experiment":
            span = by_id.get((span["pid"], span.get("parent_id")))
        return span

    found = {}
    for span in spans:
        if span.get("name") == name:
            owner = experiment_of(span)
            if owner is not None and owner["attrs"].get("key") in keys:
                key = (owner["pid"], owner["span_id"])
                found[key] = found.get(key, 0) + 1
    return found


def _experiment_spans(spans, keys):
    return [
        span for span in spans
        if span.get("name") == "runner.experiment"
        and span["attrs"].get("key") in keys
    ]


def check_sweep_spans(path, spans, errors):
    """One ``simulation.sweep`` per X5 scheme inside each X5 experiment."""
    sweeps = _owner_counts(spans, "simulation.sweep", ("X5",))
    for span in _experiment_spans(spans, ("X5",)):
        found = sweeps.get((span["pid"], span["span_id"]), 0)
        if found != len(DEFAULT_SCHEMES):
            errors.append(
                f"{path}: X5 experiment span {span['span_id']} holds "
                f"{found} simulation.sweep span(s), expected "
                f"{len(DEFAULT_SCHEMES)} (one per scheme)"
            )


def check_batch_spans(path, spans, errors):
    """``workload.batch`` spans inside each X4, X5, X7 and EPM experiment.

    Each must name its builder (``kind``) and its ``num_queries``.
    """
    for span in spans:
        if span.get("name") != "workload.batch":
            continue
        attrs = span.get("attrs", {})
        if attrs.get("kind") not in BATCH_KINDS or not isinstance(
            attrs.get("num_queries"), int
        ):
            errors.append(
                f"{path}: workload.batch span {span.get('span_id')} has "
                f"attrs {attrs!r}, expected a kind in {BATCH_KINDS} and "
                "an integer num_queries"
            )
    batches = _owner_counts(spans, "workload.batch", BATCH_EXPERIMENTS)
    for span in _experiment_spans(spans, BATCH_EXPERIMENTS):
        if not batches.get((span["pid"], span["span_id"]), 0):
            errors.append(
                f"{path}: {span['attrs']['key']} experiment span "
                f"{span['span_id']} holds no workload.batch span"
            )


def parse_counter_expectation(spec):
    """``NAME[:MIN]`` -> ``(name, minimum)``; MIN defaults to 1."""
    name, _, minimum = spec.partition(":")
    if not name:
        raise ValueError(f"bad counter expectation {spec!r}")
    return name, int(minimum) if minimum else 1


def check_metrics(path, errors, expect_counters=(), full=True):
    """Validate a ``--metrics-out`` document.

    ``full=False`` (the ``--counters-only`` mode) keeps the layout and
    ``--expect-counter`` checks but drops the experiment-runner
    requirements (cache counters, per-experiment histograms) — for
    exports written by processes that aren't experiment runs, e.g. the
    serve smoke.
    """
    document = load_metrics(path)
    if document.get("schema") != METRICS_SCHEMA_VERSION:
        errors.append(
            f"{path}: schema {document.get('schema')!r}, expected "
            f"{METRICS_SCHEMA_VERSION}"
        )
        return
    counters = document["aggregate"].get("counters", {})
    histograms = document["aggregate"].get("histograms", {})
    timed = [
        name
        for name in histograms
        if name.startswith("experiment.") and name.endswith(".seconds")
    ]
    if full:
        for name in ("cache.hits", "cache.misses"):
            if name not in counters:
                errors.append(
                    f"{path}: aggregate counter {name!r} missing"
                )
        if not timed:
            errors.append(f"{path}: no experiment.*.seconds histograms")
    for name, minimum in expect_counters:
        actual = counters.get(name, 0)
        if actual < minimum:
            errors.append(
                f"{path}: expected counter {name} >= {minimum}, "
                f"got {actual}"
            )
    print(
        f"obs check: {path}: {len(counters)} counter(s), "
        f"{len(timed)} experiment timing histogram(s)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="JSONL file written by --trace "
                        "(with --counters-only: the metrics file)")
    parser.add_argument(
        "metrics",
        nargs="?",
        help="JSON file written by --metrics-out",
    )
    parser.add_argument(
        "--counters-only",
        action="store_true",
        help="validate only the metrics document layout and "
        "--expect-counter expectations; no trace file and no "
        "experiment-runner requirements (usage: check_obs_output.py "
        "--counters-only metrics.json --expect-counter NAME:MIN)",
    )
    parser.add_argument(
        "--expect-counter",
        action="append",
        default=[],
        metavar="NAME[:MIN]",
        help="require the aggregate counter NAME >= MIN (default 1); "
        "repeatable",
    )
    args = parser.parse_args(argv)
    try:
        expect_counters = [
            parse_counter_expectation(spec)
            for spec in args.expect_counter
        ]
    except ValueError as exc:
        parser.error(str(exc))

    errors = []
    if args.counters_only:
        metrics_path = args.metrics or args.trace
        try:
            check_metrics(
                metrics_path, errors, expect_counters, full=False
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            errors.append(f"{metrics_path}: {exc}")
    else:
        if args.metrics is None:
            parser.error("metrics file required unless --counters-only")
        try:
            check_trace(args.trace, errors)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            errors.append(f"{args.trace}: {exc}")
        try:
            check_metrics(args.metrics, errors, expect_counters)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            errors.append(f"{args.metrics}: {exc}")

    if errors:
        for error in errors:
            print(f"obs check: FAILED — {error}", file=sys.stderr)
        return 1
    print("obs check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
