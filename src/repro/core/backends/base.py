"""The kernel-backend interface: the three summed-area-table loops, swappable.

A :class:`KernelBackend` implements the library's three hot kernels —

1. the batched 2^k-corner query gather behind
   :meth:`~repro.core.engine.ResponseTimeEngine.batch_response_times`
   (and, fused with the bounds check and clip of a served request,
   :meth:`~repro.core.engine.ResponseTimeEngine.wire_response_times`),
2. the sliding-window shape sweep behind
   :meth:`~repro.core.engine.ResponseTimeEngine.sliding_response_times`
   and :func:`repro.core.cost.sliding_response_times`, and
3. the SAT tile fill behind :meth:`~repro.core.sat.SummedAreaTable.build`
   and :meth:`~repro.core.sat.SummedAreaTable.build_chunked` —

against a shared, backend-neutral data model: clipped half-open bounds
arrays, disk-id blocks and :class:`~repro.core.sat.SummedAreaTable`
objects.  The numpy
implementation is the **bit-identical reference**; every other backend
is certified against it by the QA423 contract rule, so swapping
backends can only move time around, never results.

Backends declare availability at runtime (``cnative`` needs a C
compiler); unavailable backends stay registered so
``--backend``/``REPRO_BACKEND`` can fail loudly with the reason instead
of silently running something else.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.exceptions import QueryError
from repro.core.query import QueryBatch
from repro.core.sat import SummedAreaTable

__all__ = ["WIRE_BOUNDS_MESSAGE", "KernelBackend", "check_wire_arrays"]

#: What :meth:`KernelBackend.wire_response_times` raises on a bad row.
WIRE_BOUNDS_MESSAGE = "batch bounds must satisfy 0 <= lower <= upper"


def check_wire_arrays(
    sat: SummedAreaTable, bounds: np.ndarray, out: np.ndarray
) -> None:
    """Raise :class:`QueryError` unless ``bounds``/``out`` fit ``sat``.

    ``bounds`` must be ``(2, N, k)`` int64 for the table's ``k`` and
    ``out`` a writable, aligned, C-contiguous ``(N,)`` int64 array — the
    layout a compiled kernel writes through a bare pointer.
    """
    flags = out.flags
    if (
        out.ndim != 1
        or out.dtype != np.int64
        or bounds.dtype != np.int64
        or bounds.shape != (2, out.shape[0], sat.ndim)
        or not (flags.c_contiguous and flags.aligned and flags.writeable)
    ):
        raise QueryError(
            f"wire bounds {bounds.dtype}{bounds.shape} and output "
            f"{out.dtype}{out.shape} do not fit a {sat.ndim}-d table"
        )


class KernelBackend(abc.ABC):
    """One implementation of the hot kernels.

    Attributes
    ----------
    name:
        Registry identifier (``"numpy"``, ``"cnative"``).
    """

    #: Registry identifier; subclasses must override.
    name: str = ""

    def available(self) -> bool:
        """Whether the backend can run in this process (deps, compiler)."""
        return self.unavailable_reason() is None

    def unavailable_reason(self) -> Optional[str]:
        """Why the backend cannot run, or None when it can."""
        return None

    # -- 1. batched rectangle queries ----------------------------------

    @abc.abstractmethod
    def batch_disk_counts(
        self, sat: SummedAreaTable, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Per-query per-disk bucket counts, shape ``(N, M)`` int64.

        ``lo``/``hi`` are the clipped half-open bounds ``(N, k)`` the
        engine computes; zero-extent boxes (fully clipped queries) must
        produce all-zero rows.
        """

    def batch_response_times(
        self, sat: SummedAreaTable, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Busiest-disk count per query, shape ``(N,)`` int64.

        Default: max-reduce :meth:`batch_disk_counts`; fused backends
        override to skip the ``(N, M)`` intermediate entirely.
        """
        counts = self.batch_disk_counts(sat, lo, hi)
        if counts.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return counts.max(axis=1)

    def wire_response_times(
        self, sat: SummedAreaTable, bounds: np.ndarray, out: np.ndarray
    ) -> None:
        """Answer a served batch's inclusive bounds into ``out``.

        ``bounds`` is the ``(2, N, k)`` int64 request body (``[0]`` the
        inclusive lower rows, ``[1]`` the inclusive upper rows; it may be
        a read-only view of the wire buffer and is never written);
        ``out`` is the ``(N,)`` int64 reply body (see
        :func:`check_wire_arrays`).  Each row must satisfy ``0 <= lower
        <= upper`` — otherwise :class:`QueryError` with
        :data:`WIRE_BOUNDS_MESSAGE`, and ``out`` is left unspecified —
        and is clipped by :meth:`~repro.core.query.QueryBatch.clip`, so
        the answers equal :meth:`batch_response_times` on the clipped
        batch.  This default is the reference; compiled backends fuse
        the check, the clip and the gather into one call.
        """
        check_wire_arrays(sat, bounds, out)
        lower, upper = bounds
        if (lower < 0).any() or (lower > upper).any():
            raise QueryError(WIRE_BOUNDS_MESSAGE)
        batch = QueryBatch.clip(lower, upper, sat.dims)
        out[...] = self.batch_response_times(sat, batch.lo, batch.hi)

    def wire_call(
        self, sat: SummedAreaTable, bounds: np.ndarray, out: np.ndarray
    ) -> Callable[[], None]:
        """:meth:`wire_response_times` of ``bounds`` into ``out``, prepared.

        Each call of the result answers what ``bounds`` holds at that
        moment, so an owner that refills one ``bounds`` buffer (the
        daemon's prepared batch) prepares once and calls once per
        request.  The result may own scratch memory: call it from one
        thread at a time, and prepare one per thread.  This default
        binds the arguments; compiled backends resolve the kernel and
        every address here, once.
        """
        check_wire_arrays(sat, bounds, out)
        return functools.partial(self.wire_response_times, sat, bounds, out)

    # -- 2. sliding-window shape sweep ---------------------------------

    @abc.abstractmethod
    def window_response_times(
        self, sat: SummedAreaTable, shape: Sequence[int]
    ) -> np.ndarray:
        """RT of ``shape`` at every placement, from a prebuilt SAT.

        Output shape ``(d_1 - s_1 + 1, ..., d_k - s_k + 1)`` int64; the
        caller guarantees the shape fits the grid.
        """

    # -- 3. SAT tile fill ----------------------------------------------

    @abc.abstractmethod
    def fill_tile(
        self,
        out: np.ndarray,
        block: np.ndarray,
        num_disks: int,
        carry: np.ndarray,
    ) -> None:
        """Write one tile of SAT rows into ``out``, carry included.

        ``block`` holds the disk ids of ``rows`` consecutive rows of
        the leading axis, shape ``(rows, d_2, ..., d_k)``; ``carry`` is
        the SAT row just before the tile, shape ``(d_2 + 1, ..., d_k +
        1, M)`` (all zeros for the first tile).  ``out`` is the
        C-contiguous ``(rows, d_2 + 1, ..., d_k + 1, M)`` destination in
        the SAT dtype; its prior contents are ignored, and every element
        is written, the trailing axes' zero pad planes included, so a
        torn tile left in a mapped file is simply overwritten.  A disk
        id outside ``[0, M)`` counts on no disk.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
