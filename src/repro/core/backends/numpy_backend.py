"""The numpy kernel backend — always available, the bit-identical reference.

Every kernel here is the exact vectorized implementation the library
shipped before backends existed (moved out of ``core/engine.py``,
``core/cost.py`` and the scheme modules); the compiled backends are
certified against it by QA423, and the scalar per-query/per-bucket
functions remain the reference oracle above *this* backend (QA420–422,
QA430/431).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.backends.base import KernelBackend
from repro.core.sat import SummedAreaTable

__all__ = ["NumpyBackend", "sliding_window_sums"]


def sliding_window_sums(
    indicator: np.ndarray, shape: Sequence[int]
) -> np.ndarray:
    """Sum of ``indicator`` over every axis-aligned window of ``shape``.

    Separable: along each axis, the windowed sum is a difference of
    cumulative sums.
    """
    result = indicator
    for axis, side in enumerate(shape):
        csum = np.cumsum(result, axis=axis)
        length = result.shape[axis]
        head = np.take(csum, [side - 1], axis=axis)
        if length > side:
            tail = (
                np.take(csum, range(side, length), axis=axis)
                - np.take(csum, range(0, length - side), axis=axis)
            )
            result = np.concatenate([head, tail], axis=axis)
        else:
            result = head
    return result


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

    def window_disk_counts(
        self, sat: SummedAreaTable, shape: Sequence[int]
    ) -> np.ndarray:
        """Per-disk window counts ``(M, *placements)`` — numpy-only extra.

        Kept on the numpy backend (not the abstract interface) because
        it materializes per-disk planes; the engine's
        ``disk_window_counts`` is its only caller.
        """
        counts = self._window_counts(sat, shape)
        return np.moveaxis(counts, -1, 0).astype(np.int64)

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

    def sliding_response_times(
        self,
        table: np.ndarray,
        num_disks: int,
        shape: Sequence[int],
    ) -> np.ndarray:
        out_shape = tuple(
            d - s + 1 for s, d in zip(shape, table.shape)
        )
        best = np.zeros(out_shape, dtype=np.int64)
        for disk in range(num_disks):
            window = sliding_window_sums(
                (table == disk).astype(np.int64), shape
            )
            np.maximum(best, window, out=best)
        return best

    # -- whole-grid allocation-table kernels ---------------------------

    def linear_mod_table(
        self,
        dims: Tuple[int, ...],
        coefficients: Tuple[int, ...],
        num_disks: int,
    ) -> np.ndarray:
        total = np.zeros(dims, dtype=np.int64)
        coords = list(np.indices(dims, dtype=np.int64))
        for coefficient, axis_coords in zip(coefficients, coords):
            total += coefficient * axis_coords
        return total % num_disks

    def xor_mod_table(
        self, dims: Tuple[int, ...], num_disks: int
    ) -> np.ndarray:
        table = np.zeros(dims, dtype=np.int64)
        coords = list(np.indices(dims, dtype=np.int64))
        for axis_coords in coords:
            np.bitwise_xor(table, axis_coords, out=table)
        return table % num_disks
