"""Process-local counters and histograms.

The metrics registry is the "how often / how big" half of
:mod:`repro.obs`.  It holds two kinds of series:

* **counters** — monotonically increasing integers
  (``registry.inc("cache.hits")``), or cumulative gauges published
  wholesale from an existing counter source
  (:meth:`MetricsRegistry.set_counter`);
* **histograms** — bounded reservoirs of float observations
  (``registry.observe("experiment.E1.seconds", dt)``) summarized as
  count/sum/mean/p50/p95/p99/max.

Histograms are *reservoir sampled*: each series keeps at most
:data:`HISTOGRAM_RESERVOIR_SIZE` observations (Vitter's Algorithm R
with a per-name deterministic seed) next to exact running count/sum/max
aggregates.  Below the cap the reservoir holds the full series and every
statistic is exact; above it, count/sum/mean/max stay exact while the
percentiles become estimates over a uniform sample.  This keeps a
long-running server's memory and summary cost O(1) per series instead
of O(observations) — at serving rates the previous grow-forever list
was a memory leak and an O(n log n) summary.

Process model.  Each process owns exactly one registry
(:func:`global_registry`); nothing is shared across processes.  A
``--metrics-out`` export (:meth:`MetricsRegistry.to_json_dict`) holds
the exporting process's own series.

All increments are plain dict operations on process-local state: no
locks on the hot path, nothing to configure, and nothing measurable when
the numbers are never read.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

__all__ = [
    "HISTOGRAM_RESERVOIR_SIZE",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "global_registry",
    "histogram_summary",
    "reset_global_registry",
]

#: Bumped when the JSON layout changes incompatibly.
METRICS_SCHEMA_VERSION = 2

#: Max observations retained per histogram series.  Statistics are exact
#: up to this many observations; beyond it percentiles are estimated
#: from a uniform reservoir while count/sum/mean/max stay exact.
HISTOGRAM_RESERVOIR_SIZE = 4096


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    rank = max(int(len(ordered) * fraction + 0.5), 1)
    return ordered[min(rank, len(ordered)) - 1]


def histogram_summary(
    values: List[float],
    stats: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """count/sum/mean/p50/p95/p99/max of a series of observations.

    ``values`` is the (possibly subsampled) observation list used for
    percentiles.  ``stats``, when given, carries the *exact* running
    ``{"count", "sum", "max"}`` aggregates of the full series — a
    reservoir that overflowed reports exact totals with estimated
    percentiles.  Without ``stats`` the list is taken as the complete
    series.
    """
    if not values and (stats is None or not stats.get("count")):
        return {
            "count": 0, "sum": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }
    ordered = sorted(values)
    if stats is None:
        count = len(ordered)
        total = float(sum(ordered))
        maximum = ordered[-1]
    else:
        count = int(stats["count"])
        total = float(stats["sum"])
        maximum = float(stats["max"])
    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "p50": _percentile(ordered, 0.50) if ordered else 0.0,
        "p95": _percentile(ordered, 0.95) if ordered else 0.0,
        "p99": _percentile(ordered, 0.99) if ordered else 0.0,
        "max": maximum,
    }


class _Reservoir:
    """Bounded uniform sample of a float series plus exact aggregates.

    Vitter's Algorithm R: the first ``cap`` observations are kept
    verbatim; observation ``n > cap`` replaces a random slot with
    probability ``cap / n``.  The RNG is seeded deterministically from
    the series name so repeated runs produce identical exports.
    """

    __slots__ = ("count", "total", "maximum", "samples", "_cap", "_rng")

    def __init__(self, seed: int, cap: int = HISTOGRAM_RESERVOIR_SIZE):
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0
        self.samples: List[float] = []
        self._cap = cap
        self._rng = np.random.default_rng(seed)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.count == 1 or value > self.maximum:
            self.maximum = value
        if len(self.samples) < self._cap:
            self.samples.append(value)
        else:
            slot = int(self._rng.integers(self.count))
            if slot < self._cap:
                self.samples[slot] = value

    def stats(self) -> Dict[str, float]:
        return {
            "count": self.count, "sum": self.total, "max": self.maximum,
        }

    def summary(self) -> Dict[str, float]:
        return histogram_summary(self.samples, self.stats())


def _reservoir_seed(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


class MetricsRegistry:
    """Counters + histograms for one process.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.inc("cache.hits", 3)
    >>> registry.observe("experiment.E1.seconds", 0.25)
    >>> registry.counter("cache.hits")
    3
    >>> registry.aggregate_counters()["cache.hits"]
    3
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, _Reservoir] = {}

    # -- local series -------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def set_counter(self, name: str, value: int) -> None:
        """Publish a cumulative value wholesale (e.g. cache stats)."""
        self._counters[name] = int(value)

    def counter(self, name: str) -> int:
        """Current local value of counter ``name`` (0 if never touched)."""
        return self._counters.get(name, 0)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        reservoir = self._histograms.get(name)
        if reservoir is None:
            reservoir = _Reservoir(_reservoir_seed(name))
            self._histograms[name] = reservoir
        reservoir.add(value)

    def clear(self) -> None:
        """Drop all series."""
        self._counters = {}
        self._histograms = {}

    # -- snapshots ----------------------------------------------------

    def aggregate_counters(self) -> Dict[str, int]:
        """A copy of every counter."""
        return dict(self._counters)

    def aggregate_histograms(self) -> Dict[str, Dict[str, float]]:
        """Summaries of every histogram, by name."""
        return {
            name: reservoir.summary()
            for name, reservoir in sorted(self._histograms.items())
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """The full registry as the JSON document ``--metrics-out`` writes."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "pid": os.getpid(),
            "aggregate": {
                "counters": dict(sorted(self._counters.items())),
                "histograms": self.aggregate_histograms(),
            },
        }

    def write_json(self, path: Union[str, Path]) -> None:
        """Serialize :meth:`to_json_dict` to ``path`` (pretty-printed)."""
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n"
        )


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry used by all library instrumentation."""
    return _GLOBAL_REGISTRY


def reset_global_registry() -> MetricsRegistry:
    """Replace the process-wide registry with a fresh one; returns it."""
    global _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY
