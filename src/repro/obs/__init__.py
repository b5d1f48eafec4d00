"""``repro.obs`` — lightweight observability: tracing, metrics, logging.

After four PRs of performance and robustness work the library had zero
instrumentation: no timers, no counters, no logs.  This package is the
missing feedback loop, built around three constraints:

* **off by default, zero overhead when off** — the tracer's disabled
  path allocates nothing (a bench gate asserts the bound), counters are
  plain dict increments, and logging ships a ``NullHandler``;
* **process-local** — every process owns one tracer and one registry,
  and span ids embed the pid, so exports from different processes
  never collide;
* **distribution-aware** — histograms expose p50/p95/max, not just
  means, following the response-time-variability literature.

Entry points:

* :func:`repro.obs.trace.trace` / :func:`repro.obs.trace.trace_event` —
  span context manager and point events on the global tracer;
* :func:`repro.obs.metrics.global_registry` — the process-wide
  counter/histogram registry;
* :func:`repro.obs.log.get_logger` / ``configure_logging`` — namespaced
  library logging;
* :mod:`repro.obs.summary` — renderers behind
  ``repro-decluster obs summary``.

CLI surface: ``--trace FILE``, ``--metrics-out FILE``, ``--log-level``
on ``repro-decluster experiment``, plus ``repro-decluster obs summary``.
See ``docs/observability.md`` for naming conventions and examples.
"""

from __future__ import annotations

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    reset_global_registry,
)
from repro.obs.trace import (
    Tracer,
    global_tracer,
    trace,
    trace_event,
)

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "configure_logging",
    "get_logger",
    "global_registry",
    "global_tracer",
    "reset_global_registry",
    "trace",
    "trace_event",
]
