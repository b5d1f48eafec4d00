"""Tests for the metrics registry (:mod:`repro.obs.metrics`)."""

import os

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    global_registry,
    histogram_summary,
    reset_global_registry,
)


class TestCounters:
    def test_inc_creates_and_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits")
        registry.inc("cache.hits", 4)
        assert registry.counter("cache.hits") == 5

    def test_untouched_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0

    def test_set_counter_overwrites(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 3)
        registry.set_counter("cache.hits", 11)
        assert registry.counter("cache.hits") == 11


class TestHistograms:
    def test_summary_fields(self):
        summary = histogram_summary([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["mean"] == 2.5
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0
        assert summary["p95"] == 4.0

    def test_empty_summary_is_all_zero(self):
        summary = histogram_summary([])
        assert summary["count"] == 0
        assert summary["p95"] == 0.0

    def test_single_observation(self):
        summary = histogram_summary([0.5])
        assert summary["p50"] == 0.5 == summary["p95"] == summary["max"]

    def test_observe_feeds_aggregate(self):
        registry = MetricsRegistry()
        registry.observe("experiment.E1.seconds", 0.2)
        registry.observe("experiment.E1.seconds", 0.4)
        summary = registry.aggregate_histograms()["experiment.E1.seconds"]
        assert summary["count"] == 2
        assert summary["sum"] == pytest.approx(0.6)


class TestJsonDocument:
    def test_layout(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 2)
        registry.observe("experiment.E1.seconds", 0.2)
        document = registry.to_json_dict()
        assert set(document) == {"schema", "pid", "aggregate"}
        assert document["schema"] == METRICS_SCHEMA_VERSION == 2
        assert document["pid"] == os.getpid()
        assert document["aggregate"]["counters"] == {"cache.hits": 2}
        histogram = document["aggregate"]["histograms"][
            "experiment.E1.seconds"
        ]
        assert histogram["count"] == 1  # summarized, not raw samples

    def test_write_json_round_trips(self, tmp_path):
        import json

        registry = MetricsRegistry()
        registry.inc("sat.build_resumes")
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        document = json.loads(path.read_text())
        assert document["aggregate"]["counters"]["sat.build_resumes"] == 1

    def test_clear_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("h", 1.0)
        registry.clear()
        assert registry.aggregate_counters() == {}
        assert registry.aggregate_histograms() == {}


class TestGlobalRegistry:
    def test_reset_swaps_the_instance(self):
        first = global_registry()
        first.inc("marker")
        fresh = reset_global_registry()
        try:
            assert fresh is global_registry()
            assert fresh is not first
            assert fresh.counter("marker") == 0
        finally:
            reset_global_registry()


class TestReservoirHistograms:
    def test_samples_are_bounded_but_aggregates_exact(self):
        from repro.obs.metrics import HISTOGRAM_RESERVOIR_SIZE

        registry = MetricsRegistry()
        total = HISTOGRAM_RESERVOIR_SIZE + 500
        for value in range(total):
            registry.observe("big.series", float(value))
        reservoir = registry._histograms["big.series"]
        assert len(reservoir.samples) == HISTOGRAM_RESERVOIR_SIZE
        summary = registry.aggregate_histograms()["big.series"]
        assert summary["sum"] == pytest.approx(sum(range(total)))
        # Exact aggregates survive sampling; percentiles come from the
        # reservoir and stay within the observed range.
        assert summary["count"] == total
        assert summary["max"] == float(total - 1)
        assert 0.0 <= summary["p50"] <= float(total - 1)
        assert summary["p50"] <= summary["p99"] <= summary["max"]

    def test_p99_reported_and_exact_below_capacity(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("small.series", float(value))
        summary = registry.aggregate_histograms()["small.series"]
        assert summary["p99"] == 99.0  # nearest-rank on 1..100
        assert summary["p95"] == 95.0

    def test_reservoir_is_deterministic_per_name(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        for value in range(10_000):
            first.observe("det.series", float(value))
            second.observe("det.series", float(value))
        assert (
            first._histograms["det.series"].samples
            == second._histograms["det.series"].samples
        )
