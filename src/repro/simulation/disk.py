"""Physical disk service-time model.

The paper counts parallel bucket reads; this substrate converts those counts
into milliseconds with an early-1990s disk model, so the library can also
report wall-clock-style figures and model the (second-order) effects the
unit-cost metric abstracts away: per-request seek and rotational latency
versus sequential transfer.

Service time for one bucket request:

    seek + rotational latency + bucket_size / transfer_rate

Reading ``n`` buckets of one query from the same disk pays the seek and
latency per bucket when the buckets are scattered (the declustering
worst case) or once when they happen to be laid out contiguously
(``sequential=True``) — both forms are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.core.exceptions import SimulationError

__all__ = ["DiskModel"]


@dataclass(frozen=True)
class DiskModel:
    """Timing parameters of one disk.

    Defaults approximate a circa-1993 SCSI drive (the hardware era of the
    paper): 12 ms average seek, 5400 RPM (5.6 ms average rotational
    latency), 2 MB/s sustained transfer, 8 KiB buckets... all tunable.

    Attributes
    ----------
    avg_seek_ms:
        Average seek time per random request, milliseconds.
    rotation_ms:
        Full-revolution time; average rotational latency is half of it.
    transfer_mb_per_s:
        Sustained media transfer rate, megabytes per second.
    bucket_kb:
        Bucket (allocation-unit) size, kilobytes.
    """

    avg_seek_ms: float = 12.0
    rotation_ms: float = 11.1
    transfer_mb_per_s: float = 2.0
    bucket_kb: float = 8.0

    def __post_init__(self) -> None:
        for field_name in (
            "avg_seek_ms",
            "rotation_ms",
            "transfer_mb_per_s",
            "bucket_kb",
        ):
            value = getattr(self, field_name)
            if value <= 0:
                raise SimulationError(
                    f"{field_name} must be positive, got {value}"
                )

    @property
    def avg_latency_ms(self) -> float:
        """Average rotational latency (half a revolution)."""
        return self.rotation_ms / 2.0

    @property
    def transfer_ms_per_bucket(self) -> float:
        """Media transfer time for one bucket."""
        return self.bucket_kb / 1024.0 / self.transfer_mb_per_s * 1000.0

    @property
    def random_access_ms(self) -> float:
        """Positioning cost of one random bucket read (seek + latency)."""
        return self.avg_seek_ms + self.avg_latency_ms

    def service_time_ms(self, num_buckets: int, sequential: bool = False) -> float:
        """Time for one disk to read ``num_buckets`` buckets of a query.

        ``sequential=True`` charges one positioning cost for the whole run
        (buckets laid out contiguously); the default charges it per bucket
        (buckets scattered across the platter, the declustered layout's
        conservative assumption).  The scalar form of
        :meth:`service_times_ms`.
        """
        return float(self.service_times_ms([num_buckets], sequential)[0])

    def service_times_ms(
        self, counts: Union[np.ndarray, Sequence[int]], sequential: bool = False
    ) -> np.ndarray:
        """:meth:`service_time_ms` of every entry of ``counts``, float64.

        ``counts`` is any array of bucket counts (typically the ``(N, M)``
        per-query per-disk counts of a batch); the result has its shape.
        A zero count costs 0.0 (the disk is not touched at all).
        """
        counts = np.asarray(counts)
        if counts.size and counts.min() < 0:
            raise SimulationError(
                f"bucket count must be non-negative, got {counts.min()}"
            )
        buckets = counts.astype(np.float64)
        if sequential:
            times = (
                self.random_access_ms
                + buckets * self.transfer_ms_per_bucket
            )
        else:
            times = buckets * (
                self.random_access_ms + self.transfer_ms_per_bucket
            )
        return np.where(counts == 0, 0.0, times)
