"""The numpy kernel backend — always available, the bit-identical reference.

The two query kernels read a :class:`~repro.core.sat.SummedAreaTable`
and the tile kernel writes one; the compiled backend is certified
against all three by QA423 and the backend property tests, and the
scalar per-query functions remain the reference oracle above *this*
backend (QA421/QA422).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.allocation import table_dtype
from repro.core.backends.base import KernelBackend
from repro.core.sat import SummedAreaTable

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Pure-numpy kernels; the reference every other backend must match."""

    name = "numpy"

    # -- batched rectangle queries -------------------------------------

    def batch_disk_counts(
        self, sat: SummedAreaTable, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        return sat.corner_counts(lo, hi)

    # -- sliding-window shape sweep ------------------------------------

    def window_response_times(
        self, sat: SummedAreaTable, shape: Sequence[int]
    ) -> np.ndarray:
        # The disk axis is short and innermost; a reduction over a
        # disk-first contiguous copy runs long vectorised loops instead
        # of one short loop per placement.  An integer max is exact.
        counts = self._window_counts(sat, shape)
        disk_first = np.ascontiguousarray(np.moveaxis(counts, -1, 0))
        return disk_first.max(axis=0).astype(np.int64)

    @staticmethod
    def _window_counts(
        sat: SummedAreaTable, shape: Sequence[int]
    ) -> np.ndarray:
        """Window counts ``(*placements, M)``, accumulated in the SAT dtype.

        Exact: every true count lies in ``[0, buckets]``, which the SAT
        dtype holds, and integer wraparound of the partial sums is
        modular, so the final sum is the true count.
        """
        dims = sat.dims
        shape = tuple(int(s) for s in shape)
        counts: np.ndarray = np.zeros(0)
        for corner in range(1 << sat.ndim):
            slices = []
            parity = 0
            for axis, side in enumerate(shape):
                if (corner >> axis) & 1:
                    # Low corner on this axis: origin o (subtracted term).
                    slices.append(slice(0, dims[axis] - side + 1))
                    parity ^= 1
                else:
                    # High corner: o + s (added term).
                    slices.append(slice(side, dims[axis] + 1))
            term = sat.array[tuple(slices)]
            if corner == 0:
                counts = term.copy()
            elif parity:
                counts -= term
            else:
                counts += term
        return counts

    # -- SAT tile fill ---------------------------------------------------

    def fill_tile(
        self,
        out: np.ndarray,
        block: np.ndarray,
        num_disks: int,
        carry: np.ndarray,
    ) -> None:
        # The pad planes are zeroed and the disk indicators land past
        # them; prefix sums then run along every trailing axis, the
        # carry joins the first row, and the leading-axis sum runs last
        # (cumsums commute), so a later tile needs only this tile's last
        # row.
        ndim = block.ndim
        for axis in range(1, ndim):
            out[(slice(None),) * axis + (0,)] = 0
        disks = np.arange(
            num_disks,
            dtype=np.promote_types(block.dtype, table_dtype(num_disks)),
        )
        interior = (slice(None),) + (slice(1, None),) * (ndim - 1)
        np.equal(block[..., np.newaxis], disks, out=out[interior])
        for axis in range(1, ndim):
            np.cumsum(out, axis=axis, out=out)
        out[0] += carry
        np.cumsum(out, axis=0, out=out)
