"""Physical-disk timing model and parallel I/O stream simulation.

Both simulators run on arrays: one batch gather
(:func:`repro.core.cost.batch_disk_counts`) gives a stream's ``(N, M)``
per-query per-disk bucket counts, and one call of
:meth:`DiskModel.service_times_ms` turns them into service times.  The
closed loop is then a per-disk ``cumsum``; the open system runs the FIFO
recurrence down the query axis for every arrival rate at once.  Each is
bit-identical to the per-query loop it replaced.
"""

from repro.simulation.disk import DiskModel
from repro.simulation.open_system import (
    OpenSystemReport,
    OpenSystemSimulator,
    poisson_arrivals,
    saturation_sweep,
)
from repro.simulation.parallel_io import (
    ParallelIOSimulator,
    StreamReport,
    query_time_ms,
)
from repro.simulation.scheduling import (
    balanced_order,
    compare_orderings,
    lpt_order,
)

__all__ = [
    "DiskModel",
    "query_time_ms",
    "ParallelIOSimulator",
    "StreamReport",
    "OpenSystemSimulator",
    "OpenSystemReport",
    "poisson_arrivals",
    "saturation_sweep",
    "lpt_order",
    "balanced_order",
    "compare_orderings",
]
