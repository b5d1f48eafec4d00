"""The span legs of ``scripts/check_obs_output.py``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_obs_output.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_obs_output", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span(span_id, name, parent=None, **attrs):
    return {
        "pid": 1, "span_id": span_id, "parent_id": parent, "name": name,
        "attrs": attrs,
    }


def x5_trace(num_sweeps):
    spans = [
        span("1-1", "runner.experiment", key="X5"),
        span("1-2", "runner.experiment", key="X4"),
        span("1-3", "simulation.sweep", "1-2"),
    ]
    for index in range(num_sweeps):
        spans.append(span(f"1-s{index}", "simulation.sweep", "1-1"))
        spans.append(span(f"1-e{index}", "engine.build", f"1-s{index}"))
    return spans


@pytest.mark.parametrize("num_sweeps", [0, 2, 3, 4])
def test_one_sweep_per_scheme(checker, num_sweeps):
    errors = []
    checker.check_sweep_spans("t.jsonl", x5_trace(num_sweeps), errors)
    expected = len(checker.DEFAULT_SCHEMES)
    assert expected == 3
    if num_sweeps == expected:
        assert errors == []
    else:
        assert len(errors) == 1
        assert f"holds {num_sweeps} simulation.sweep" in errors[0]


def batch_trace(missing=(), attrs=None):
    spans = []
    for index, key in enumerate(("X4", "X5", "X7", "EPM", "E1")):
        spans.append(span(f"1-{index}", "runner.experiment", key=key))
        if key not in missing:
            spans.append(span(f"1-p{index}", "plan", f"1-{index}"))
            spans.append(span(
                f"1-b{index}", "workload.batch", f"1-p{index}",
                **(attrs or {"kind": "placements", "num_queries": 4}),
            ))
    return spans


def test_batch_spans_present(checker):
    errors = []
    checker.check_batch_spans("t.jsonl", batch_trace(missing=("E1",)), errors)
    assert errors == []


@pytest.mark.parametrize("key", ["X4", "X5", "X7", "EPM"])
def test_batch_span_missing_under_an_experiment(checker, key):
    errors = []
    checker.check_batch_spans("t.jsonl", batch_trace(missing=(key,)), errors)
    assert len(errors) == 1
    assert f"{key} experiment span" in errors[0]


@pytest.mark.parametrize(
    "attrs",
    [{"kind": "placements"}, {"kind": "other", "num_queries": 3},
     {"num_queries": 3}],
)
def test_batch_span_attrs_required(checker, attrs):
    errors = []
    checker.check_batch_spans("t.jsonl", batch_trace(attrs=attrs), errors)
    assert len(errors) == 5
    assert all("workload.batch span" in error for error in errors)
