"""Tests for the span tracer (:mod:`repro.obs.trace`)."""

import json
import os

import pytest

from repro.obs.trace import (
    SPAN_FIELDS,
    TRACE_SCHEMA_VERSION,
    Tracer,
    global_tracer,
    trace,
    trace_event,
)
from repro.obs.summary import load_trace


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.enable()
    return tracer


class TestSpanRecording:
    def test_span_records_name_and_duration(self, tracer):
        with tracer.span("work"):
            pass
        (span,) = tracer.spans()
        assert span["name"] == "work"
        assert span["kind"] == "span"
        assert span["duration_s"] >= 0.0
        assert span["pid"] == os.getpid()
        assert span["schema"] == TRACE_SCHEMA_VERSION

    def test_attrs_are_carried(self, tracer):
        with tracer.span("batch", num_queries=17):
            pass
        (span,) = tracer.spans()
        assert span["attrs"] == {"num_queries": 17}

    def test_nesting_records_parent_id(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()  # inner exits (records) first
        assert inner["name"] == "inner"
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]

    def test_siblings_share_a_parent(self, tracer):
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, outer = tracer.spans()
        assert a["parent_id"] == outer["span_id"]
        assert b["parent_id"] == outer["span_id"]
        assert a["span_id"] != b["span_id"]

    def test_escaping_exception_is_stamped_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert "ValueError" in span["attrs"]["error"]

    def test_event_is_zero_duration(self, tracer):
        tracer.event("tick", key="E2", attempt=1)
        (event,) = tracer.spans()
        assert event["kind"] == "event"
        assert event["duration_s"] == 0.0
        assert event["attrs"]["key"] == "E2"

    def test_event_nests_under_open_span(self, tracer):
        with tracer.span("outer"):
            tracer.event("ping")
        ping, outer = tracer.spans()
        assert ping["parent_id"] == outer["span_id"]

    def test_span_ids_embed_the_pid(self, tracer):
        with tracer.span("x"):
            pass
        (span,) = tracer.spans()
        assert span["span_id"].startswith(f"{os.getpid()}-")


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not Tracer().enabled

    def test_disabled_span_records_nothing(self):
        tracer = Tracer()
        with tracer.span("ghost"):
            pass
        tracer.event("ghost-event")
        assert tracer.spans() == []

    def test_disabled_global_trace_returns_shared_singleton(self):
        # Zero-overhead contract: no allocation while disabled, so every
        # disabled trace() call must hand back the same object.
        tracer = global_tracer()
        was_enabled = tracer.enabled
        tracer.disable()
        try:
            assert trace("a") is trace("b", attr=1)
            with trace("noop"):
                pass
            trace_event("noop-event")
            assert tracer.spans() == []
        finally:
            if was_enabled:
                tracer.enable()

    def test_disable_keeps_already_collected_spans(self, tracer):
        with tracer.span("kept"):
            pass
        tracer.disable()
        with tracer.span("dropped"):
            pass
        assert [s["name"] for s in tracer.spans()] == ["kept"]


class TestJsonlExport:
    def test_round_trip_through_file(self, tracer, tmp_path):
        with tracer.span("outer", key="E1"):
            with tracer.span("inner"):
                pass
        tracer.event("retry", attempt=2)
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path) == 3

        spans = load_trace(path)
        assert len(spans) == 3
        for span in spans:
            assert tuple(span) == SPAN_FIELDS
        by_name = {span["name"]: span for span in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["retry"]["kind"] == "event"
        assert by_name["outer"]["attrs"] == {"key": "E1"}

    def test_lines_are_ordered_by_wall_start(self, tracer, tmp_path):
        # Spans are recorded on exit, so the inner one is collected
        # first even though the outer one started earlier.
        with tracer.span("early"):
            with tracer.span("late"):
                pass
        assert [s["name"] for s in tracer.spans()] == ["late", "early"]
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
        assert names == ["early", "late"]

    def test_every_line_is_standalone_json(self, tracer, tmp_path):
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert isinstance(json.loads(line), dict)
