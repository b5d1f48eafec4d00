"""Tests of the benchmark harness itself (not of the program it measures).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import workload_serve
import workload_spill
import workload_suite
from common import (
    BENCH_DIR,
    CALIB_REF_S,
    ROOT,
    Window,
    child_env,
    read_declared,
    window_figures,
)
from layers import LayerInputs, per_layer_metrics
from shims import Recorder, ShimSet, chrome_trace, layer_targets

__all__ = []

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _pool_arrays(pool):
    return [
        np.asarray(request[key])
        for phase in workload_serve.PHASES
        for request in pool[phase]
        for key in sorted(request)
    ]


class TestSeededInputs:
    def test_serve_pool_repeats_for_a_seed(self):
        first = _pool_arrays(workload_serve.make_pool(7))
        second = _pool_arrays(workload_serve.make_pool(7))
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_serve_pool_differs_across_seeds(self):
        first = _pool_arrays(workload_serve.make_pool(7))
        other = _pool_arrays(workload_serve.make_pool(8))
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_spill_inputs_repeat_for_a_seed_and_differ_across_seeds(self):
        def arrays(seed):
            pool, check = workload_spill.make_inputs(seed)
            return [b.lo for b in pool + [check]] + [
                b.hi for b in pool + [check]
            ]

        same = zip(arrays(3), arrays(3))
        assert all(np.array_equal(a, b) for a, b in same)
        assert not all(
            np.array_equal(a, b) for a, b in zip(arrays(3), arrays(4))
        )

    def test_spill_budget_forces_tiles(self):
        assert workload_spill.BUDGET * 4 <= workload_spill.table_bytes()


class TestShims:
    def test_shims_restore_every_original(self):
        from repro.core.engine import ResponseTimeEngine
        from repro.core.sat import SummedAreaTable
        from repro.experiments import exp_degraded
        from repro.replication import planner
        from repro.schemes.base import DeclusteringScheme
        from repro.serve import protocol

        before = (
            planner.plan_query, exp_degraded.plan_query,
            protocol.encode_frame, protocol.parse_payload,
            vars(SummedAreaTable)["build_chunked"],
            vars(ResponseTimeEngine)["batch_response_times"],
            vars(DeclusteringScheme)["disk_array"],
        )
        with ShimSet(Recorder(), layer_targets()):
            assert planner.plan_query is not before[0]
            assert exp_degraded.plan_query is planner.plan_query
        after = (
            planner.plan_query, exp_degraded.plan_query,
            protocol.encode_frame, protocol.parse_payload,
            vars(SummedAreaTable)["build_chunked"],
            vars(ResponseTimeEngine)["batch_response_times"],
            vars(DeclusteringScheme)["disk_array"],
        )
        assert all(a is b for a, b in zip(before, after))

    def test_self_time_excludes_child_spans(self):
        recorder = Recorder()

        def inner():
            time.sleep(0.02)

        def outer():
            recorder.call("b.inner", "b", inner, (), {})
            time.sleep(0.01)

        recorder.call("a.outer", "a", outer, (), {})
        outer_stats = recorder.stats["a.outer"]
        inner_stats = recorder.stats["b.inner"]
        assert outer_stats["total_s"] >= 0.03
        assert outer_stats["self_s"] == pytest.approx(
            outer_stats["total_s"] - inner_stats["total_s"], abs=1e-9
        )
        assert inner_stats["self_s"] == pytest.approx(
            inner_stats["total_s"], abs=1e-9
        )

    def test_reentering_a_layer_records_the_outermost_call_only(self):
        recorder = Recorder()

        def nested():
            return recorder.call("a.y", "a", lambda: 1, (), {})

        recorder.call("a.x", "a", nested, (), {})
        assert list(recorder.stats) == ["a.x"]

    def test_chrome_trace_is_complete_events(self):
        recorder = Recorder()
        recorder.call("a.x", "a", time.sleep, (0.001,), {})
        document = json.loads(json.dumps(
            chrome_trace([recorder.to_json()], {recorder.pid: "bench"})
        ))
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["pid"] == recorder.pid
        assert {"name", "ts", "dur", "tid", "cat"} <= set(spans[0])

    def test_traced_suite_report_is_byte_identical(self):
        expected = workload_suite.REFERENCE.read_bytes()
        recorder = Recorder()
        with ShimSet(recorder, layer_targets()):
            text = workload_suite.build_report()
        assert text.encode("utf-8") == expected
        assert recorder.stats["planner.plan_query"]["calls"] > 0
        assert "runner.exp.X6" in recorder.stats


class TestYardstick:
    def test_scaled_figures_divide_out_a_slow_host(self):
        slow_host = [Window(1.0, [0.5, 0.5], 2, 1.0, 2 * CALIB_REF_S)]
        figures = window_figures(slow_host)
        assert figures["op_ms"][0] == pytest.approx(500.0)
        assert figures["op_norm_ms"][0] == pytest.approx(250.0)
        assert figures["ops_per_s"][0] == pytest.approx(2.0)
        assert figures["ops_norm_per_s"][0] == pytest.approx(4.0)


class TestDeclaredMetrics:
    def test_per_layer_names_match_the_declaration(self):
        declared = [m["name"] for m in read_declared()["per_layer"]]
        emitted = per_layer_metrics(LayerInputs({}, 1, 1.0, 1.0, 1.0))
        assert sorted(emitted) == sorted(declared)
        assert all(NAME.fullmatch(name) for name in emitted)

    @pytest.mark.parametrize(
        "workload", ["suite", "serve-batch", "serve-plan", "spill"]
    )
    def test_untraced_run_emits_exactly_the_declared_metrics(self, workload):
        declared = {m["name"]: m["unit"] for m in read_declared()["end_to_end"]}
        result = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", "0.5", "--trace", "0"],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
            timeout=300, check=True,
        )
        last = json.loads(result.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
        assert all(NAME.fullmatch(name) for name in last["metrics"])
        assert all(v["value"] > 0 for v in last["metrics"].values())
