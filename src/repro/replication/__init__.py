"""Two-copy replicated declustering and replica-choice query planning.

The extension the paper scopes out ("we do not consider techniques where a
data subspace can be assigned to more than one disk"), built: chained and
orthogonal replication plus an exact pair-class planner that picks a
replica per bucket to minimize the busiest disk.
"""

from repro.replication.allocation import (
    ReplicatedAllocation,
    chained_replication,
    orthogonal_replication,
)
from repro.replication.planner import (
    QueryPlan,
    degraded_replicated_response_time,
    plan_batch,
    plan_query,
    replicated_response_time,
    replication_speedup,
)

__all__ = [
    "ReplicatedAllocation",
    "chained_replication",
    "orthogonal_replication",
    "QueryPlan",
    "degraded_replicated_response_time",
    "plan_batch",
    "plan_query",
    "replicated_response_time",
    "replication_speedup",
]
