"""``serve-batch`` and ``serve-plan``: a closed loop against ``repro serve``.

One daemon, ``repro --backend cnative serve --spec hcam:64x64:16`` with
its default ``--serve-workers 0`` and ``--max-inflight``, on a loopback
TCP port.  One connection from this process sends its next request only
after the previous reply arrives, since the daemon's callers wait for
each reply.  One connection keeps the client, the daemon's event loop
and its executor thread to about one runnable thread at a time, so on a
2-core host other tenants' load moves the figures less: under a busy
neighbour process, spreads over five runs were 0.06 with one connection
against 0.12 with two.  The untraced figures are medians over 1 s
windows of the timed run; the yardstick (``calibrate()``) is timed
in this process before each window.  Both phases draw from one seeded
request pool:

* ``batch`` — ``batch_response_times`` of 256 random rectangles;
* ``plan`` — ``degraded_plan`` of a square of side 2–8 with one failed
  disk, ``method="flow"``.

Every distinct request's expected answer is computed in-process before
the timed window, and every reply in the window is compared with it.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.backends import set_backend
from repro.core.cache import global_cache
from repro.core.exceptions import DeclusteringError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.faults.models import FailStop, FaultScenario
from repro.replication.allocation import chained_replication
from repro.replication.planner import plan_query
from repro.serve.client import ServeClient

from common import (
    BENCH_DIR,
    WORK,
    Outcome,
    Window,
    calibrate,
    median,
    process_cpu_s,
    start_until_ready,
    stop_process,
    vmhwm_mb,
    window_figures,
)
from layers import LayerInputs, per_layer_metrics
from shims import (
    Recorder,
    ShimSet,
    chrome_trace,
    layer_targets,
    merge_stats,
)

__all__ = ["PHASES", "make_pool", "run"]

SCHEME = "hcam"
DIMS = (64, 64)
NUM_DISKS = 16
SPEC = "hcam:64x64:16"
BACKEND = "cnative"
POOL = 64
BATCH = 256
PLAN_SIDES = (2, 8)
PLAN_OFFSET = 1
#: Daemons per untraced run: each is a set-up sample and then serves
#: an equal share of the timed window.  ``SETUP_PROBES`` more are
#: started and stopped only to steady the set-up median.
DAEMONS = 3
SETUP_PROBES = 4
#: Length of the windows replies are grouped into (see window_figures).
SUB_WINDOW_S = 1.0

PHASES = ("batch", "plan")

_ADDR = re.compile(r"addr=\('([^']+)', (\d+)\)")


def make_pool(seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """The seeded request pool: ``POOL`` distinct requests per phase."""
    rng = np.random.default_rng(seed)
    dims = np.asarray(DIMS, dtype=np.int64)
    batches = []
    for _ in range(POOL):
        lower = rng.integers(0, dims, size=(BATCH, len(DIMS)))
        extent = rng.integers(0, dims // 2, size=lower.shape)
        batches.append({
            "lower": lower.astype(np.int64),
            "upper": np.minimum(lower + extent, dims - 1).astype(np.int64),
        })
    plans = []
    for _ in range(POOL):
        side = int(rng.integers(PLAN_SIDES[0], PLAN_SIDES[1] + 1))
        lower = rng.integers(0, dims - side + 1)
        plans.append({
            "lower": tuple(int(c) for c in lower),
            "upper": tuple(int(c) + side - 1 for c in lower),
            "failed": (int(rng.integers(0, NUM_DISKS)),),
        })
    return {"batch": batches, "plan": plans}


def expected_answers(phase: str, requests: List[Dict[str, Any]]) -> List:
    """What the in-process library answers for each distinct request."""
    grid = Grid(DIMS)
    if phase == "batch":
        engine = global_cache().engine(SCHEME, grid, NUM_DISKS)
        return [
            engine.batch_response_times(
                QueryBatch(r["lower"], r["upper"] + 1, DIMS)
            )
            for r in requests
        ]
    replicated = chained_replication(
        global_cache().allocation(SCHEME, grid, NUM_DISKS),
        offset=PLAN_OFFSET,
    )
    answers = []
    for r in requests:
        plan = plan_query(
            replicated, RangeQuery(r["lower"], r["upper"]), method="flow",
            scenario=FaultScenario(NUM_DISKS, [FailStop(r["failed"])]),
        )
        answers.append(
            (int(plan.response_time), float(plan.completion_time),
             int(plan.num_lost))
        )
    return answers


def _ask(phase: str) -> Callable[[ServeClient, Dict[str, Any]], Any]:
    if phase == "batch":
        def ask(client, request):
            times, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, request["lower"], request["upper"]
            )
            return times
        return ask

    def ask_plan(client, request):
        header = client.degraded_plan(
            SCHEME, DIMS, NUM_DISKS, request["lower"], request["upper"],
            failed=request["failed"], method="flow", offset=PLAN_OFFSET,
        )
        return (int(header["response_time"]),
                float(header["completion_time"]), int(header["num_lost"]))
    return ask_plan


def _matches(phase: str, got: Any, want: Any) -> bool:
    if phase == "batch":
        return bool(np.array_equal(got, want))
    return got == want


class _Daemon:
    """One daemon process: launch, address, peak memory, drain."""

    def __init__(self, traced: bool, tag: str):
        self.spans_out = WORK / "traces" / f"daemon-spans-{tag}.json"
        self.metrics_out = WORK / "traces" / f"daemon-metrics-{tag}.json"
        cli = ["--backend", BACKEND, "serve", "--spec", SPEC,
               "--host", "127.0.0.1", "--port", "0"]
        if traced:
            command = [
                sys.executable, str(BENCH_DIR / "serve_entry.py"),
                "--spans-out", str(self.spans_out), "--",
            ] + cli + ["--metrics-out", str(self.metrics_out)]
        else:
            command = [sys.executable, "-m", "repro.cli"] + cli
        self.proc, self.ready_s, line = start_until_ready(
            command, "serve: ready", f"daemon-{tag}.log"
        )
        match = _ADDR.search(line)
        if match is None:
            stop_process(self.proc)
            raise RuntimeError(f"no address on the ready line: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self) -> ServeClient:
        return ServeClient(host=self.host, port=self.port)

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if stop_process(self.proc) != 0:
            raise RuntimeError("serve daemon exited non-zero at drain")


class _LoadGenerator:
    """Closed-loop load over one connection for ``seconds``."""

    def __init__(self, phase: str, requests: List, answers: List):
        self.phase = phase
        self.ask = _ask(phase)
        self.requests = requests
        self.answers = answers
        self.answers_per_request = BATCH if phase == "batch" else 1

    def warm_up(self, daemon: _Daemon) -> int:
        """Send every distinct request once; return how many were wrong."""
        wrong = 0
        with daemon.client() as client:
            for request, answer in zip(self.requests, self.answers):
                wrong += not _matches(self.phase, self.ask(client, request),
                                      answer)
        return wrong

    def measure(
        self, daemon: _Daemon, seconds: float
    ) -> Tuple[List[Window], int, float]:
        """Closed loop for ``seconds``, cut into ``SUB_WINDOW_S`` windows.

        Each window holds the replies that completed in it and the
        daemon's CPU time over it.  Returns the windows, the failed
        requests and the load generator's CPU seconds.
        """
        count = max(1, round(seconds / SUB_WINDOW_S))
        pid = daemon.proc.pid
        windows: List[Window] = []
        failed = index = 0
        client_cpu = 0.0
        with daemon.client() as client:
            started = time.perf_counter()
            for step in range(1, count + 1):
                yard = calibrate()
                low, daemon_cpu = time.perf_counter(), process_cpu_s(pid)
                own_cpu = time.process_time()
                end = started + seconds * step / count
                samples = []
                while time.perf_counter() < end:
                    position = index % len(self.requests)
                    index += 1
                    began = time.perf_counter()
                    try:
                        got = self.ask(client, self.requests[position])
                    except (DeclusteringError, OSError):
                        failed += 1
                        continue
                    samples.append(time.perf_counter() - began)
                    failed += not _matches(self.phase, got,
                                           self.answers[position])
                client_cpu += time.process_time() - own_cpu
                windows.append(Window(
                    time.perf_counter() - low, samples,
                    len(samples) * self.answers_per_request,
                    process_cpu_s(pid) - daemon_cpu, yard,
                ))
        return windows, failed, client_cpu


def _prepare(phase: str, seed: int) -> Tuple[_LoadGenerator, float]:
    set_backend(BACKEND)  # warms the native cache before any timing
    requests = make_pool(seed)[phase]
    began = time.perf_counter()
    answers = expected_answers(phase, requests)
    return _LoadGenerator(phase, requests, answers), time.perf_counter() - began


def run(phase: str, seed: int, seconds: float, traced: bool) -> Outcome:
    load, verify_s = _prepare(phase, seed)
    facts = {"seed": seed, "phase": phase, "connections": 1}
    if traced:
        return _run_traced(load, seconds, verify_s, facts)
    setup, peaks, windows = [], [], []
    for index in range(SETUP_PROBES):
        daemon = _Daemon(traced=False, tag=f"probe{index}")
        setup.append(daemon.ready_s)
        daemon.stop()
    failed = 0
    for index in range(DAEMONS):
        daemon = _Daemon(traced=False, tag=f"run{index}")
        try:
            setup.append(daemon.ready_s)
            failed += load.warm_up(daemon)
            share, share_failed, _cpu = load.measure(
                daemon, seconds / DAEMONS
            )
            peaks.append(daemon.peak_rss_mb())
        finally:
            daemon.stop()
        windows.extend(share)
        failed += share_failed
    attempted = DAEMONS * POOL + failed + sum(
        len(w.samples) for w in windows
    )
    metrics = {
        "setup_s": (median(setup), len(setup)),
        "peak_rss_mb": (max(peaks), len(peaks)),
        "ok_frac": (1.0 - failed / attempted, attempted),
    }
    metrics.update(window_figures(windows))
    return Outcome(attempted=attempted, failed=failed, metrics=metrics,
                   facts=facts)


def _server_figures(phase: str, metrics: Dict[str, Any], ops: int,
                    client_p50_s: float) -> Dict[str, float]:
    aggregate = metrics["aggregate"]
    histograms, counters = aggregate["histograms"], aggregate["counters"]
    name = "batch_response_times" if phase == "batch" else "degraded_plan"
    series = histograms.get(f"serve.latency.{name}.seconds", {})
    server_p50 = float(series.get("p50", 0.0))
    batches = int(histograms.get(
        "serve.latency.batch_response_times.seconds", {}
    ).get("count", 0))
    hits = int(counters.get("cache.hits", 0))
    misses = int(counters.get("cache.misses", 0))
    return {
        f"server.{phase}_p50_ms": server_p50 * 1e3,
        f"transport.{phase}_p50_ms": (client_p50_s - server_p50) * 1e3,
        "server.shed_ratio": (
            int(counters.get("serve.shed", 0)) / batches if batches else 0.0
        ),
        "cache.hits": hits / ops,
        "cache.misses": misses / ops,
        "cache.hit_ratio": hits / max(hits + misses, 1),
    }


def _run_traced(load: _LoadGenerator, seconds: float, verify_s: float,
                facts: dict) -> Outcome:
    # Untraced reference for the tracing overhead, on a plain daemon.
    daemon = _Daemon(traced=False, tag="reference")
    try:
        failed = load.warm_up(daemon)
        reference, reference_failed, _cpu = load.measure(
            daemon, seconds / 3
        )
    finally:
        daemon.stop()
    recorder = Recorder()
    daemon = _Daemon(traced=True, tag="traced")
    try:
        with ShimSet(recorder, layer_targets()):
            failed += load.warm_up(daemon)
            daemon.signal(signal.SIGUSR1)
            time.sleep(0.2)
            recorder.reset()
            windows, traced_failed, cpu = load.measure(
                daemon, seconds * 2 / 3
            )
    finally:
        daemon.stop()
    failed += reference_failed + traced_failed
    daemon_dump = json.loads(daemon.spans_out.read_text())
    server_metrics = json.loads(daemon.metrics_out.read_text())
    latencies = [value for w in windows for value in w.samples]
    wall = sum(w.wall_s for w in windows)
    count = len(latencies)
    extra = _server_figures(
        load.phase, server_metrics, count, median(latencies)
    )
    extra["client.verify_s"] = verify_s
    extra["client.busy_frac"] = cpu / wall
    inputs = LayerInputs(
        merge_stats(recorder.stats, daemon_dump["stats"]), count,
        busy_s=sum(latencies),
        untraced_s=window_figures(reference)["op_p50_ms"][0],
        traced_s=window_figures(windows)["op_p50_ms"][0],
        extra=extra,
    )
    attempted = 2 * POOL + failed + count + sum(
        len(w.samples) for w in reference
    )
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            name: (value, count)
            for name, value in per_layer_metrics(inputs).items()
        },
        facts=facts,
        trace=chrome_trace(
            [recorder.to_json(), daemon_dump],
            {recorder.pid: "benchmark (client)",
             int(daemon_dump["pid"]): "repro serve"},
        ),
    )
