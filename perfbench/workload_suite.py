"""``suite``: the full paper report, composed as ``generate_report.py`` does.

Serial ``run_all``, then ``render_all``, then the X6 growth table, in
this process with a fresh global allocation cache per repetition and the
default backend.  Every repetition must reproduce
``benchmarks/results_full_report.txt`` byte for byte.  Inputs are the
paper's fixed configurations: the seed does not apply.  The yardstick
(``calibrate()``) is timed before each report.
"""

from __future__ import annotations

import time
from typing import Tuple

from repro.core.cache import global_cache, reset_global_cache
from repro.experiments import exp_growth, runner

from common import (
    ROOT,
    Outcome,
    Window,
    calibrate,
    median,
    peak_rss_mb,
    setup_samples,
    window_figures,
)
from layers import LayerInputs, per_layer_metrics
from shims import Recorder, ShimSet, chrome_trace, layer_targets

__all__ = ["REFERENCE", "build_report", "run"]

REFERENCE = ROOT / "benchmarks" / "results_full_report.txt"

#: What a user's report run pays before the first experiment starts.
SETUP_CODE = (
    "import repro.experiments.runner, repro.experiments.exp_growth\n"
    "from repro.core.backends import active_backend\n"
    "active_backend()\n"
    "print('ready', flush=True)\n"
)
SETUP_SAMPLES = 7
#: Yardstick samples before each report (a report takes 3-7 s); their
#: median is the report's yardstick time.
YARD_SAMPLES = 3


def build_report() -> str:
    """The report text exactly as ``scripts/generate_report.py`` writes it."""
    reset_global_cache()
    results = runner.run_all(quick=False, workers=None)
    report = runner.render_all(results)
    growth = exp_growth.render(exp_growth.run())
    return report + "\n\n" + growth + "\n"


def _repetition(expected: bytes) -> Tuple[Window, bool, Tuple[int, int]]:
    yard = median([calibrate() for _ in range(YARD_SAMPLES)])
    cpu = time.process_time()
    started = time.perf_counter()
    text = build_report()
    elapsed = time.perf_counter() - started
    window = Window(elapsed, [elapsed], 1, time.process_time() - cpu, yard)
    stats = global_cache().stats()
    return window, text.encode("utf-8") == expected, (stats.hits,
                                                       stats.misses)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    expected = REFERENCE.read_bytes()
    facts = {"seed": None, "seed_note": "fixed paper configurations"}
    if traced:
        return _run_traced(expected, seconds, facts)
    setup = setup_samples(SETUP_CODE, SETUP_SAMPLES)
    windows, failed = [], 0
    started = time.perf_counter()
    while not windows or time.perf_counter() - started < seconds:
        window, ok, _cache = _repetition(expected)
        windows.append(window)
        failed += not ok
    count = len(windows)
    metrics = {
        "setup_s": (median(setup), len(setup)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "ok_frac": (1.0 - failed / count, count),
    }
    metrics.update(window_figures(windows))
    return Outcome(attempted=count, failed=failed, metrics=metrics,
                   facts=facts)


def _run_traced(expected: bytes, seconds: float, facts: dict) -> Outcome:
    reference, ok, _cache = _repetition(expected)
    failed = int(not ok)
    recorder = Recorder()
    times, hits, misses = [], 0, 0
    with ShimSet(recorder, layer_targets()):
        started = time.perf_counter()
        while not times or time.perf_counter() - started < seconds:
            window, ok, (rep_hits, rep_misses) = _repetition(expected)
            times.append(window.wall_s)
            failed += not ok
            hits += rep_hits
            misses += rep_misses
    count = len(times)
    inputs = LayerInputs(
        recorder.stats, count, busy_s=sum(times),
        untraced_s=reference.wall_s, traced_s=median(times),
        extra={
            "cache.hits": hits / count,
            "cache.misses": misses / count,
            "cache.hit_ratio": hits / max(hits + misses, 1),
        },
    )
    return Outcome(
        attempted=count + 1,
        failed=failed,
        metrics={
            name: (value, count)
            for name, value in per_layer_metrics(inputs).items()
        },
        facts=facts,
        trace=chrome_trace(
            [recorder.to_json()], {recorder.pid: "benchmark"}
        ),
    )
