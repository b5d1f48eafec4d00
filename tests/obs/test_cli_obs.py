"""CLI surface of the observability layer.

``repro-decluster experiment … --trace/--metrics-out/--log-level`` and
the ``obs summary`` subcommand.
"""

import json
import logging

import pytest

from repro.cli import main
from repro.obs.log import ROOT_LOGGER_NAME
from repro.obs.metrics import reset_global_registry
from repro.obs.summary import load_trace
from repro.obs.trace import global_tracer


@pytest.fixture(autouse=True)
def clean_obs():
    reset_global_registry()
    tracer = global_tracer()
    tracer.disable()
    tracer.clear()
    yield
    tracer.disable()
    tracer.clear()
    reset_global_registry()
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


class TestExperimentInstrumentation:
    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["experiment", "E2", "--quick", "--trace", str(trace_path)]
        ) == 0
        spans = load_trace(trace_path)
        assert spans
        names = {span["name"] for span in spans}
        assert "runner.experiment" in names
        assert "engine.sliding_response_times" in names
        assert f"trace: {len(spans)} span(s)" in capsys.readouterr().err

    def test_single_key_traces_exactly_one_experiment(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["experiment", "E2", "--quick", "--trace", str(trace_path)]
        ) == 0
        experiments = [
            span for span in load_trace(trace_path)
            if span["name"] == "runner.experiment"
        ]
        assert [span["attrs"]["key"] for span in experiments] == ["E2"]

    def test_x6_trace_has_one_grow_span_per_scheme(self, capsys, tmp_path):
        from repro.experiments.exp_growth import DEFAULT_SCHEMES

        assert main(["experiment", "X6", "--quick"]) == 0
        plain = capsys.readouterr().out
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["experiment", "X6", "--quick", "--trace", str(trace_path)]
        ) == 0
        assert capsys.readouterr().out == plain
        spans = load_trace(trace_path)
        grows = [s for s in spans if s["name"] == "gridfile.grow"]
        assert [s["attrs"] for s in grows] == [
            {"scheme": scheme, "records": 400} for scheme in DEFAULT_SCHEMES
        ]
        assert all(s["kind"] == "span" for s in grows)
        grown = [s for s in spans if s["name"] == "gridfile.grown"]
        assert [s["parent_id"] for s in grown] == [
            s["span_id"] for s in grows
        ]
        for event in grown:
            assert event["attrs"]["num_splits"] > 0
            assert event["attrs"]["records_migrated"] > 0

    def test_metrics_out_writes_registry_document(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["experiment", "E2", "--quick",
             "--metrics-out", str(metrics_path)]
        ) == 0
        document = json.loads(metrics_path.read_text())
        counters = document["aggregate"]["counters"]
        assert counters.get("cache.hits", 0) + counters.get(
            "cache.misses", 0
        ) > 0
        assert (
            document["aggregate"]["histograms"][
                "experiment.E2.seconds"
            ]["count"] == 1
        )

    def test_without_flags_nothing_is_recorded(self, tmp_path):
        assert main(["experiment", "E2", "--quick"]) == 0
        assert global_tracer().spans() == []

    def test_log_level_configures_the_repro_logger(self):
        assert main(
            ["experiment", "E2", "--quick", "--log-level", "debug"]
        ) == 0
        logger = logging.getLogger(ROOT_LOGGER_NAME)
        assert logger.level == logging.DEBUG
        assert any(
            getattr(handler, "_repro_obs_handler", False)
            for handler in logger.handlers
        )


class TestObsSummaryCommand:
    def _make_artifacts(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["experiment", "E2", "--quick",
             "--trace", str(trace_path),
             "--metrics-out", str(metrics_path)]
        ) == 0
        return trace_path, metrics_path

    def test_summary_renders_both_files(self, capsys, tmp_path):
        trace_path, metrics_path = self._make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(
            ["obs", "summary", "--metrics", str(metrics_path),
             "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert "trace summary" in out
        assert "E2" in out

    def test_summary_with_metrics_only(self, capsys, tmp_path):
        _, metrics_path = self._make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(
            ["obs", "summary", "--metrics", str(metrics_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert "trace summary" not in out

    def test_summary_without_inputs_is_usage_error(self, capsys):
        assert main(["obs", "summary"]) == 2
        assert "obs summary:" in capsys.readouterr().err

    def test_summary_on_wrong_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "not_metrics.json"
        path.write_text(json.dumps({"foo": 1}))
        assert main(["obs", "summary", "--metrics", str(path)]) == 1
        assert "obs summary:" in capsys.readouterr().err
