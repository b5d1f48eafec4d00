"""Fault models and degraded-mode evaluation.

The production-shaped half of the reproduction: disks fail (fail-stop) or
merely limp (stragglers), and the declustered layouts must degrade
gracefully; the chaos plan checks that the artifact layer and the
experiment runner recover from crashes.  Three pieces:

* :mod:`repro.faults.models` — ``FailStop`` / ``Slowdown`` faults, the
  merged :class:`FaultScenario`, and the seeded :class:`FaultInjector`;
* :mod:`repro.faults.degraded` — availability and degraded response-time
  semantics for unreplicated and replicated allocations;
* :mod:`repro.faults.io` — the one chaos fault plan: injection points
  inside the artifact layer (SAT spills, kernel compiles) and before
  each runner experiment, driving the integrity, checkpoint and resume
  chaos tests.
"""

from repro.faults.degraded import (
    availability,
    degraded_buckets_per_disk,
    degraded_optimal_response_time,
    degraded_response_time,
    query_is_available,
    replicated_availability,
    replicated_query_is_available,
)
from repro.faults.io import (
    InjectedIOFault,
    IoFaultPlan,
    maybe_io_fault,
)
from repro.faults.models import (
    FailStop,
    Fault,
    FaultInjector,
    FaultScenario,
    Slowdown,
)

__all__ = [
    "FailStop",
    "Fault",
    "FaultInjector",
    "FaultScenario",
    "InjectedIOFault",
    "IoFaultPlan",
    "Slowdown",
    "availability",
    "degraded_buckets_per_disk",
    "degraded_optimal_response_time",
    "degraded_response_time",
    "maybe_io_fault",
    "query_is_available",
    "replicated_availability",
    "replicated_query_is_available",
]
