"""Tests for the ``obs summary`` renderers (:mod:`repro.obs.summary`)."""

import json

import pytest

from repro.obs.summary import (
    load_metrics,
    load_trace,
    render_metrics_summary,
    render_summary_files,
    render_trace_summary,
)


def _metrics_document():
    return {
        "schema": 2,
        "pid": 1,
        "aggregate": {
            "counters": {
                "cache.hits": 8,
                "cache.misses": 2,
                "cache.evictions": 1,
            },
            "histograms": {
                "experiment.E1.seconds": {
                    "count": 1, "sum": 0.25, "mean": 0.25,
                    "p50": 0.25, "p95": 0.25, "max": 0.25,
                },
            },
        },
    }


def _spans():
    return [
        {
            "schema": 1, "kind": "span", "name": "runner.experiment",
            "span_id": "7-1", "parent_id": None, "pid": 7,
            "wall_start": 10.0, "duration_s": 0.5,
            "attrs": {"key": "E1", "quick": True},
        },
        {
            "schema": 1, "kind": "span", "name": "engine.build",
            "span_id": "7-2", "parent_id": "7-1", "pid": 7,
            "wall_start": 10.1, "duration_s": 0.002, "attrs": {},
        },
        {
            "schema": 1, "kind": "event", "name": "gridfile.grown",
            "span_id": "8-1", "parent_id": None, "pid": 8,
            "wall_start": 10.2, "duration_s": 0.0,
            "attrs": {"num_splits": 3, "records_migrated": 40},
        },
    ]


class TestMetricsRendering:
    def test_mentions_pid_hit_rate_and_wall_time(self):
        text = render_metrics_summary(_metrics_document())
        assert "metrics summary (pid 1)" in text
        assert "80% hit rate" in text
        assert "E1" in text
        assert "runner" not in text

    def test_empty_aggregate_renders_header_only(self):
        text = render_metrics_summary(
            {"aggregate": {}}
        )
        assert text == "metrics summary (pid ?)"


class TestTraceRendering:
    def test_lists_experiments_spans_and_events(self):
        text = render_trace_summary(_spans())
        assert "3 span(s)/event(s) from 2 process(es)" in text
        assert "E1" in text
        assert "engine.build" in text
        assert "gridfile.grown" in text and "x1" in text

    def test_empty_trace_renders_header_only(self):
        text = render_trace_summary([])
        assert "0 span(s)" in text


class TestFileLoading:
    def test_load_metrics_rejects_non_metrics_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="aggregate"):
            load_metrics(path)

    def test_load_trace_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    def test_load_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ok": 1}\n\n{"ok": 2}\n')
        assert len(load_trace(path)) == 2

    def test_render_summary_files_needs_at_least_one_input(self):
        with pytest.raises(ValueError):
            render_summary_files(None, None)

    def test_render_summary_files_combines_sections(self, tmp_path):
        metrics_path = tmp_path / "m.json"
        metrics_path.write_text(json.dumps(_metrics_document()))
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text(
            "".join(json.dumps(span) + "\n" for span in _spans())
        )
        text = render_summary_files(metrics_path, trace_path)
        assert "metrics summary" in text
        assert "trace summary" in text
