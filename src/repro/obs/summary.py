"""Render a run's exported metrics/trace files for humans.

Backs ``repro-decluster obs summary``: point it at the ``--metrics-out``
JSON and/or ``--trace`` JSONL a run produced and it prints per-experiment
wall times, cache hit rates and serve latencies — the distributional
view (p50/p95/max, not just means) that parallel response-time tuning
needs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "load_metrics",
    "load_trace",
    "render_metrics_summary",
    "render_summary_files",
    "render_trace_summary",
]


def load_metrics(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a ``--metrics-out`` JSON document."""
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or "aggregate" not in document:
        raise ValueError(
            f"{path}: not a repro metrics document (no 'aggregate' key)"
        )
    return document


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a ``--trace`` JSONL file into a list of span dicts."""
    spans = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            span = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSONL line: {exc}")
        spans.append(span)
    return spans


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _counter_block(
    counters: Dict[str, int], prefix: str
) -> Dict[str, int]:
    return {
        name[len(prefix):]: value
        for name, value in sorted(counters.items())
        if name.startswith(prefix)
    }


def render_metrics_summary(document: Dict[str, Any]) -> str:
    """Human-readable rendering of a metrics JSON document."""
    aggregate = document["aggregate"]
    counters: Dict[str, int] = aggregate.get("counters", {})
    histograms: Dict[str, Dict[str, float]] = aggregate.get(
        "histograms", {}
    )
    lines = [f"metrics summary (pid {document.get('pid', '?')})"]

    experiment_rows = [
        (name[len("experiment."):-len(".seconds")], summary)
        for name, summary in sorted(histograms.items())
        if name.startswith("experiment.") and name.endswith(".seconds")
    ]
    if experiment_rows:
        lines.append("  experiment wall time:")
        for key, summary in experiment_rows:
            lines.append(
                f"    {key:5s} runs={summary['count']:<2.0f} "
                f"p50={_fmt_seconds(summary['p50'])} "
                f"p95={_fmt_seconds(summary['p95'])} "
                f"max={_fmt_seconds(summary['max'])} "
                f"total={_fmt_seconds(summary['sum'])}"
            )

    serve = _counter_block(counters, "serve.")
    serve_rows = [
        (name[len("serve.latency."):-len(".seconds")], summary)
        for name, summary in sorted(histograms.items())
        if name.startswith("serve.latency.")
        and name.endswith(".seconds")
    ]
    if serve or serve_rows:
        lines.append(
            f"  serve: requests={serve.get('requests', 0)} "
            f"errors={serve.get('errors', 0)}"
        )
        for kind, summary in serve_rows:
            lines.append(
                f"    {kind:20s} n={summary['count']:<8.0f} "
                f"p50={_fmt_seconds(summary['p50'])} "
                f"p99={_fmt_seconds(summary.get('p99', 0.0))} "
                f"max={_fmt_seconds(summary['max'])}"
            )

    cache = _counter_block(counters, "cache.")
    if cache:
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        requests = hits + misses
        rate = hits / requests if requests else 0.0
        lines.append(
            f"  allocation cache: {hits} hit(s), {misses} miss(es) "
            f"({rate:.0%} hit rate), "
            f"{cache.get('evictions', 0)} eviction(s)"
        )
    return "\n".join(lines)


def render_trace_summary(spans: List[Dict[str, Any]]) -> str:
    """Human-readable rendering of a span list (JSONL trace)."""
    pids = sorted({span.get("pid") for span in spans})
    lines = [
        f"trace summary ({len(spans)} span(s)/event(s) from "
        f"{len(pids)} process(es))"
    ]

    experiments = [
        span for span in spans if span.get("name") == "runner.experiment"
    ]
    if experiments:
        lines.append("  experiments:")
        for span in sorted(
            experiments, key=lambda s: s.get("wall_start", 0.0)
        ):
            attrs = span.get("attrs", {})
            lines.append(
                f"    {str(attrs.get('key', '?')):5s} "
                f"{_fmt_seconds(float(span.get('duration_s', 0.0)))} "
                f"(pid {span.get('pid')})"
            )

    by_name: Dict[str, List[float]] = {}
    for span in spans:
        if span.get("kind") != "span":
            continue
        by_name.setdefault(str(span.get("name")), []).append(
            float(span.get("duration_s", 0.0))
        )
    if by_name:
        lines.append("  spans by name:")
        for name, durations in sorted(by_name.items()):
            total = sum(durations)
            lines.append(
                f"    {name:32s} n={len(durations):<5d} "
                f"total={_fmt_seconds(total)} "
                f"mean={_fmt_seconds(total / len(durations))}"
            )

    events: Dict[str, int] = {}
    for span in spans:
        if span.get("kind") == "event":
            name = str(span.get("name"))
            events[name] = events.get(name, 0) + 1
    if events:
        lines.append("  events:")
        for name, count in sorted(events.items()):
            lines.append(f"    {name:32s} x{count}")
    return "\n".join(lines)


def render_summary_files(
    metrics_path: Optional[Union[str, Path]] = None,
    trace_path: Optional[Union[str, Path]] = None,
) -> str:
    """The ``obs summary`` subcommand body: render whichever files exist."""
    if metrics_path is None and trace_path is None:
        raise ValueError("obs summary needs --metrics and/or --trace")
    sections = []
    if metrics_path is not None:
        sections.append(render_metrics_summary(load_metrics(metrics_path)))
    if trace_path is not None:
        sections.append(render_trace_summary(load_trace(trace_path)))
    return "\n\n".join(sections)
