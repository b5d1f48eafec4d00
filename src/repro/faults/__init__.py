"""Fault models and degraded-mode evaluation.

The production-shaped half of the reproduction: disks fail (fail-stop) or
merely limp (stragglers), and both the declustered layouts and the
experiment runner itself must degrade gracefully.  Three pieces:

* :mod:`repro.faults.models` — ``FailStop`` / ``Slowdown`` faults, the
  merged :class:`FaultScenario`, and the seeded :class:`FaultInjector`;
* :mod:`repro.faults.degraded` — availability and degraded response-time
  semantics for unreplicated and replicated allocations;
* :mod:`repro.faults.injection` — crash/exit injection for the runner's
  experiments (chaos testing the self-healing paths);
* :mod:`repro.faults.io` — I/O-level injection points inside the
  artifact layer (SAT spills, kernel compiles), driving the
  integrity/recovery chaos tests.
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
from repro.faults.injection import (
    InjectedFault,
    RunnerFaultPlan,
    maybe_inject_runner_fault,
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
    "InjectedFault",
    "InjectedIOFault",
    "IoFaultPlan",
    "RunnerFaultPlan",
    "Slowdown",
    "availability",
    "degraded_buckets_per_disk",
    "degraded_optimal_response_time",
    "degraded_response_time",
    "maybe_inject_runner_fault",
    "maybe_io_fault",
    "query_is_available",
    "replicated_availability",
    "replicated_query_is_available",
]
