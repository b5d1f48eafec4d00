"""Per-layer metrics of a traced run, from shim aggregates.

Counts and self times are per *operation* of the workload (one report,
one served request, one spill cycle), so runs of different lengths and
throughputs compare.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from shims import layer_totals

__all__ = ["EXPERIMENT_KEYS", "LayerInputs", "per_layer_metrics"]

#: Experiments of the full report, in report order (X6 is growth).
EXPERIMENT_KEYS = (
    "E1", "E2", "E3", "E4", "E5", "X1", "EPM", "X3", "X4", "X5", "X7",
    "THM", "X6",
)

#: Layers whose spans contain other layers' work rather than doing any.
_CONTAINER_LAYERS = ("runner",)


@dataclass
class LayerInputs:
    """What a workload measured alongside the shim aggregates.

    ``ops`` counts the traced operations; ``busy_s`` is the time the
    user waited in the traced window (report or build wall time, or
    summed request latency for a served run); ``untraced_s`` /
    ``traced_s`` are the matching median op times without and with the
    shims.  ``extra`` holds metrics only the workload can measure
    (daemon latencies, cache counters, client load figures).
    """

    stats: Dict[str, Dict[str, Any]]
    ops: int
    busy_s: float
    untraced_s: float
    traced_s: float
    extra: Dict[str, float] = field(default_factory=dict)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(inputs: LayerInputs) -> Dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json``."""
    stats, ops = inputs.stats, max(inputs.ops, 1)

    def total(layer: str, key: str) -> float:
        return layer_totals(stats, layer, key)

    def name_total(name: str, key: str) -> float:
        return float(stats.get(name, {}).get(key, 0))

    metrics: Dict[str, float] = {}
    for key in EXPERIMENT_KEYS:
        metrics[f"runner.exp.{key}_s"] = (
            name_total(f"runner.exp.{key}", "total_s") / ops
        )
    for layer in ("planner", "replication", "alloc", "engine"):
        metrics[f"{layer}.calls"] = total(layer, "calls") / ops
        metrics[f"{layer}.self_s"] = total(layer, "self_s") / ops
    metrics["planner.buckets"] = total("planner", "buckets") / ops
    metrics["planner.us_per_bucket"] = 1e6 * _ratio(
        total("planner", "self_s"), total("planner", "buckets")
    )
    for key in ("records", "splits", "migrated"):
        metrics[f"gridfile.{key}"] = total("gridfile", key) / ops
    metrics["gridfile.self_s"] = total("gridfile", "self_s") / ops
    metrics["engine.queries"] = total("engine", "queries") / ops
    metrics["engine.us_per_query"] = 1e6 * _ratio(
        total("engine", "self_s"), total("engine", "queries")
    )
    metrics["sat.build_s"] = name_total("sat.build", "self_s") / ops
    metrics["sat.chunked_s"] = name_total("sat.build_chunked", "self_s") / ops
    metrics["sat.open_s"] = name_total("sat.open_mmap", "self_s") / ops
    metrics["sat.tiles"] = total("sat", "tiles") / ops
    metrics["sat.bytes_per_bucket"] = _ratio(
        total("sat", "bytes"), total("sat", "buckets")
    )
    metrics["theory.self_s"] = total("theory", "self_s") / ops
    metrics["report.render_s"] = total("report", "self_s") / ops
    metrics["protocol.encode_us"] = 1e6 * _ratio(
        name_total("protocol.encode_frame", "self_s"),
        name_total("protocol.encode_frame", "calls"),
    )
    metrics["protocol.decode_us"] = 1e6 * _ratio(
        name_total("protocol.decode", "self_s"),
        name_total("protocol.decode", "calls"),
    )
    metrics["protocol.bytes_per_request"] = _ratio(
        name_total("protocol.encode_frame", "request_bytes"),
        name_total("protocol.encode_frame", "requests"),
    )
    for name in (
        "cache.hits", "cache.misses", "cache.hit_ratio",
        "server.batch_p50_ms", "server.plan_p50_ms",
        "transport.batch_p50_ms", "transport.plan_p50_ms",
        "server.shed_ratio", "client.verify_s", "client.busy_frac",
    ):
        metrics[name] = float(inputs.extra.get(name, 0.0))
    layer_self = sum(
        entry["self_s"] for entry in stats.values()
        if entry["layer"] not in _CONTAINER_LAYERS
    )
    metrics["untraced_frac"] = 1.0 - _ratio(layer_self, inputs.busy_s)
    metrics["trace_overhead_frac"] = (
        _ratio(inputs.traced_s, inputs.untraced_s) - 1.0
    )
    return metrics
