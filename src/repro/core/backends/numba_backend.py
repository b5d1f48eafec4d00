"""``numba``: the hot kernels as JIT-compiled python, when numba exists.

Mirrors the ``cnative`` C kernels over the same disk-last SAT layout;
the JIT happens lazily on first use so importing this module (and
registering the backend) costs nothing.  When the numba package is
missing the backend reports itself unavailable with the import error —
the container image does not ship numba, so this path is exercised by
the optional ``native`` CI leg (``pip install -e '.[dev,native]'``) and
skipped gracefully everywhere else.

Bit-identity with the numpy reference is certified by QA423 and the
backend property tests.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.backends.base import KernelBackend
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.sat import SummedAreaTable

__all__ = ["NumbaBackend"]

try:  # pragma: no cover - container image ships without numba
    import numba  # noqa: F401

    _NUMBA_ERROR: Optional[str] = None
except ImportError as _exc:  # pragma: no cover - exercised in CI leg
    _NUMBA_ERROR = f"numba is not installed ({_exc})"

_JIT_CACHE: dict = {}


def _kernels():  # pragma: no cover - requires numba
    """Compile (once) and return the jitted kernel trio."""
    if _JIT_CACHE:
        return _JIT_CACHE
    from numba import njit  # qa504: allow — only after the guarded import found numba

    @njit(cache=True)
    def batch_rt(satT, strides, num_disks, lo, hi, out):
        # qa701: allow — numba-jitted scalar kernel, loops compile to
        # native code
        num_queries = lo.shape[0]
        ndim = lo.shape[1]
        ncorners = 1 << ndim
        acc = np.zeros(num_disks, dtype=np.int64)
        for q in range(num_queries):
            acc[:] = 0
            for corner in range(ncorners):
                off = 0
                parity = 0
                for axis in range(ndim):
                    if (corner >> axis) & 1:
                        off += lo[q, axis] * strides[axis]
                        parity ^= 1
                    else:
                        off += hi[q, axis] * strides[axis]
                if parity:
                    for m in range(num_disks):
                        acc[m] -= satT[off + m]
                else:
                    for m in range(num_disks):
                        acc[m] += satT[off + m]
            best = acc[0]
            for m in range(1, num_disks):
                if acc[m] > best:
                    best = acc[m]
            out[q] = best

    @njit(cache=True)
    def batch_counts(satT, strides, num_disks, lo, hi, out):
        # qa701: allow — numba-jitted scalar kernel
        num_queries = lo.shape[0]
        ndim = lo.shape[1]
        ncorners = 1 << ndim
        for q in range(num_queries):
            for corner in range(ncorners):
                off = 0
                parity = 0
                for axis in range(ndim):
                    if (corner >> axis) & 1:
                        off += lo[q, axis] * strides[axis]
                        parity ^= 1
                    else:
                        off += hi[q, axis] * strides[axis]
                if parity:
                    for m in range(num_disks):
                        out[q, m] -= satT[off + m]
                else:
                    for m in range(num_disks):
                        out[q, m] += satT[off + m]

    @njit(cache=True)
    def window_rt(satT, strides, num_disks, shape, out_dims, out):
        # qa701: allow — numba-jitted scalar kernel
        ndim = shape.shape[0]
        ncorners = 1 << ndim
        deltas = np.zeros(ncorners, dtype=np.int64)
        signs = np.zeros(ncorners, dtype=np.int64)
        for corner in range(ncorners):
            delta = 0
            parity = 0
            for axis in range(ndim):
                if (corner >> axis) & 1:
                    parity ^= 1
                else:
                    delta += shape[axis] * strides[axis]
            deltas[corner] = delta
            signs[corner] = -1 if parity else 1
        coords = np.zeros(ndim, dtype=np.int64)
        acc = np.zeros(num_disks, dtype=np.int64)
        total = 1
        for axis in range(ndim):
            total *= out_dims[axis]
        for i in range(total):
            base = 0
            for axis in range(ndim):
                base += coords[axis] * strides[axis]
            acc[:] = 0
            for corner in range(ncorners):
                off = base + deltas[corner]
                if signs[corner] < 0:
                    for m in range(num_disks):
                        acc[m] -= satT[off + m]
                else:
                    for m in range(num_disks):
                        acc[m] += satT[off + m]
            best = acc[0]
            for m in range(1, num_disks):
                if acc[m] > best:
                    best = acc[m]
            out[i] = best
            for axis in range(ndim - 1, -1, -1):
                coords[axis] += 1
                if coords[axis] < out_dims[axis]:
                    break
                coords[axis] = 0

    _JIT_CACHE["batch_rt"] = batch_rt
    _JIT_CACHE["batch_counts"] = batch_counts
    _JIT_CACHE["window_rt"] = window_rt
    return _JIT_CACHE


class NumbaBackend(KernelBackend):
    """JIT-compiled kernels over the disk-last SAT layout."""

    name = "numba"

    def __init__(self) -> None:
        self._reference = NumpyBackend()

    def unavailable_reason(self) -> Optional[str]:
        return _NUMBA_ERROR

    @staticmethod
    def _flat_sat(sat: SummedAreaTable):
        """(flat disk-last view, element strides) or None for mmap SATs."""
        if sat.is_mmap:
            return None
        disk_last = sat.disk_last()
        itemsize = disk_last.itemsize
        strides = np.array(
            [s // itemsize for s in disk_last.strides[:-1]],
            dtype=np.int64,
        )
        return disk_last.reshape(-1), strides

    def batch_response_times(
        self, sat: SummedAreaTable, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - requires numba
        prepared = self._flat_sat(sat)
        if prepared is None:
            return self._reference.batch_response_times(sat, lo, hi)
        flat, strides = prepared
        out = np.zeros(lo.shape[0], dtype=np.int64)
        if out.shape[0]:
            _kernels()["batch_rt"](
                flat,
                strides,
                sat.num_disks,
                np.ascontiguousarray(lo, dtype=np.int64),
                np.ascontiguousarray(hi, dtype=np.int64),
                out,
            )
        return out

    def batch_disk_counts(
        self, sat: SummedAreaTable, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - requires numba
        prepared = self._flat_sat(sat)
        if prepared is None:
            return self._reference.batch_disk_counts(sat, lo, hi)
        flat, strides = prepared
        out = np.zeros((lo.shape[0], sat.num_disks), dtype=np.int64)
        if out.shape[0]:
            _kernels()["batch_counts"](
                flat,
                strides,
                sat.num_disks,
                np.ascontiguousarray(lo, dtype=np.int64),
                np.ascontiguousarray(hi, dtype=np.int64),
                out,
            )
        return out

    def window_response_times(
        self, sat: SummedAreaTable, shape: Sequence[int]
    ) -> np.ndarray:  # pragma: no cover - requires numba
        prepared = self._flat_sat(sat)
        if prepared is None:
            return self._reference.window_response_times(sat, shape)
        flat, strides = prepared
        shape_arr = np.array(
            [int(s) for s in shape], dtype=np.int64
        )
        out_dims = np.array(
            [d - s + 1 for s, d in zip(shape_arr, sat.dims)],
            dtype=np.int64,
        )
        out = np.zeros(int(out_dims.prod()), dtype=np.int64)
        _kernels()["window_rt"](
            flat, strides, sat.num_disks, shape_arr, out_dims, out
        )
        return out.reshape(tuple(int(d) for d in out_dims))

    def sliding_response_times(
        self,
        table: np.ndarray,
        num_disks: int,
        shape: Sequence[int],
    ) -> np.ndarray:  # pragma: no cover - requires numba
        from repro.core.allocation import DiskAllocation
        from repro.core.grid import Grid

        allocation = DiskAllocation(
            Grid(table.shape), num_disks, table
        )
        sat = SummedAreaTable.build(allocation)
        return self.window_response_times(sat, shape)

    # Table kernels: the numpy versions are already single vectorized
    # expressions; JIT-ing them buys nothing, so delegate.

    def linear_mod_table(
        self,
        dims: Tuple[int, ...],
        coefficients: Tuple[int, ...],
        num_disks: int,
    ) -> np.ndarray:
        return self._reference.linear_mod_table(
            dims, coefficients, num_disks
        )

    def xor_mod_table(
        self, dims: Tuple[int, ...], num_disks: int
    ) -> np.ndarray:
        return self._reference.xor_mod_table(dims, num_disks)
