"""Integral-image (summed-area-table) response-time engine.

This module makes workload evaluation *allocation-centric*: the
k-dimensional summed-area table (SAT, a.k.a. integral image) of all ``M``
disk-indicator tables is computed **once** per allocation
(:class:`~repro.core.sat.SummedAreaTable`).  The one-shot
:func:`repro.core.cost.sliding_response_times` builds that table for a
single shape; a many-shapes sweep (``evaluate_area`` visits every
factorization of an area) builds it once here and reuses it.  Any
shape's sliding response times then come from ``2^k``-corner
inclusion–exclusion over the SAT — no further cumulative sums:

    window[o] = sum over corner subsets S of {1..k} of
                (-1)^|S| * sat[o + shape * (1 - chi_S)]

The same table also answers **batches of arbitrary rectangles**: a query
``[l, u]`` clipped to the grid is a single inclusion–exclusion over its
``2^k`` corners (:meth:`ResponseTimeEngine.batch_response_times`).  The
corner gathers themselves are *pluggable*: every batch and sweep call
dispatches through :func:`repro.core.backends.active_backend`, so the
same engine runs the vectorized numpy reference or the fused C kernels
(``cnative``), certified bit-identical by QA423.  Engines can also wrap a chunked/memory-mapped
SAT (:meth:`ResponseTimeEngine.open_chunked`) for grids too large to
hold in RAM.

All arithmetic is exact integer work, so the engine's results are
bit-identical to the scalar per-query path; ``repro.qa`` enforces that
agreement as a contract (QA421/QA422) with brute-force
:func:`repro.core.cost.response_time` as the reference oracle.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.backends import active_backend
from repro.core.exceptions import AllocationError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery, placement_extents
from repro.core.sat import SummedAreaTable
from repro.obs.trace import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schemes.base import DeclusteringScheme

__all__ = [
    "ResponseTimeEngine",
]


class ResponseTimeEngine:
    """Per-allocation integral-image kernel for sliding response times.

    Building the engine performs the one-time ``O(k * M * num_buckets)``
    SAT precomputation; every subsequent shape query costs
    ``O(2^k * M * placements)`` slice additions — independent of the
    query's side lengths and with no per-disk Python loop.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.grid import Grid
    >>> alloc = DiskAllocation(
    ...     Grid((2, 2)), 2, np.array([[0, 1], [1, 0]])
    ... )
    >>> ResponseTimeEngine(alloc).sliding_response_times((2, 2)).tolist()
    [[2]]
    """

    __slots__ = ("_allocation", "_sat")

    def __init__(self, allocation: DiskAllocation):
        with trace(
            "engine.build",
            dims=list(allocation.grid.dims),
            num_disks=allocation.num_disks,
        ):
            self._allocation: Optional[DiskAllocation] = allocation
            self._sat = SummedAreaTable.build(allocation)

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_sat(
        cls,
        sat: SummedAreaTable,
        allocation: Optional[DiskAllocation] = None,
    ) -> "ResponseTimeEngine":
        """Wrap a prebuilt (possibly memory-mapped) SAT.

        ``allocation`` is optional: chunked/mmap engines never
        materialized one, and every engine query runs off the SAT alone.
        """
        engine = cls.__new__(cls)
        engine._allocation = allocation
        engine._sat = sat
        return engine

    @classmethod
    def open_chunked(
        cls,
        scheme: "DeclusteringScheme",
        grid: Grid,
        num_disks: int,
        byte_budget: Optional[int] = None,
        path: Optional[Union[str, os.PathLike]] = None,
    ) -> "ResponseTimeEngine":
        """Build a beyond-RAM engine via the tiled, spilling SAT build.

        The allocation table is generated slab by slab
        (``scheme.disk_array_block``) and the SAT lands in a
        memory-mapped ``.npy`` file — see
        :meth:`repro.core.sat.SummedAreaTable.build_chunked`.
        """
        sat = SummedAreaTable.build_chunked(
            scheme, grid, num_disks, byte_budget=byte_budget, path=path
        )
        return cls.from_sat(sat)

    @classmethod
    def open_mmap(
        cls, path: Union[str, os.PathLike]
    ) -> "ResponseTimeEngine":
        """Reopen a spilled SAT file as an engine (zero-copy)."""
        return cls.from_sat(SummedAreaTable.open_mmap(path))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def allocation(self) -> DiskAllocation:
        """The allocation this engine answers queries about.

        Chunked/mmap engines never materialize the allocation table;
        asking for it raises :class:`AllocationError`.
        """
        if self._allocation is None:
            raise AllocationError(
                "this engine wraps a chunked/memory-mapped SAT and has "
                "no materialized allocation table"
            )
        return self._allocation

    @property
    def sat(self) -> SummedAreaTable:
        """The summed-area table every query is answered from."""
        return self._sat

    @property
    def num_disks(self) -> int:
        """``M``, the number of disks."""
        return self._sat.num_disks

    @property
    def grid(self) -> Grid:
        """The grid the engine's SAT covers."""
        return self._sat.grid

    def nbytes(self) -> int:
        """Memory footprint of the precomputed SAT, in bytes."""
        return self._sat.nbytes()

    # ------------------------------------------------------------------
    # Shape sweeps
    # ------------------------------------------------------------------

    def sliding_response_times(self, shape: Sequence[int]) -> np.ndarray:
        """Response time of ``shape`` at every placement — engine fast path.

        The same kernel as :func:`repro.core.cost.sliding_response_times`,
        which builds a fresh table per call; the engine amortizes the
        prefix-sum work across every shape asked of it.
        """
        # Hot path: the span carries no attrs so the disabled tracer
        # costs one call and no allocation (see the obs overhead gate).
        with trace("engine.sliding_response_times"):
            shape, extents = placement_extents(self._sat.grid, shape)
            if 0 in extents:
                return np.zeros(extents, dtype=np.int64)
            return active_backend().window_response_times(
                self._sat, shape
            )

    # ------------------------------------------------------------------
    # Batched rectangle queries
    # ------------------------------------------------------------------

    def batch_disk_counts(
        self, queries: Union[Iterable[RangeQuery], QueryBatch]
    ) -> np.ndarray:
        """Per-query per-disk bucket counts, shape ``(N, M)``.

        Row ``n`` equals :func:`repro.core.cost.buckets_per_disk` for
        ``queries[n]`` (clipping included).  The whole batch is answered
        with one gather per SAT corner — ``2^k`` kernel operations
        regardless of N, on whichever backend is active.  Like every
        ``batch_*`` method, ``queries`` passes
        :meth:`~repro.core.query.QueryBatch.of` on the engine's grid.
        """
        batch = QueryBatch.of(queries, self._sat.grid)
        return active_backend().batch_disk_counts(
            self._sat, batch.lo, batch.hi
        )

    def batch_response_times(
        self, queries: Union[Iterable[RangeQuery], QueryBatch]
    ) -> np.ndarray:
        """Response time of every query in the batch, shape ``(N,)``.

        Bit-identical to calling
        :func:`repro.core.cost.response_time` per query (exact integer
        inclusion–exclusion, same clipping), with no per-query Python
        loop.
        """
        batch = QueryBatch.of(queries, self._sat.grid)
        with trace("engine.batch_response_times", num_queries=len(batch)):
            return active_backend().batch_response_times(
                self._sat, batch.lo, batch.hi
            )

    def wire_response_times(
        self, bounds: np.ndarray, out: np.ndarray
    ) -> None:
        """Answer a served batch's inclusive bounds into ``out``.

        ``bounds`` is the ``(2, N, k)`` int64 request body (inclusive
        lower rows, then upper rows) and ``out`` the ``(N,)`` int64 reply
        body; one backend call checks ``0 <= lower <= upper``
        (:class:`~repro.core.exceptions.QueryError` otherwise), clips
        and answers every row — the same answers as
        :meth:`batch_response_times` on
        :meth:`QueryBatch.clip(lower, upper, dims)
        <repro.core.query.QueryBatch.clip>`.
        """
        with trace("engine.batch_response_times", num_queries=len(out)):
            active_backend().wire_response_times(self._sat, bounds, out)

    def wire_call(
        self, bounds: np.ndarray, out: np.ndarray
    ) -> Callable[[], None]:
        """:meth:`wire_response_times` of ``bounds`` into ``out``, prepared.

        Each call of the result answers what ``bounds`` holds at that
        moment, under the same ``engine.batch_response_times`` span, so
        the daemon prepares it once per connection and batch header
        (:meth:`KernelBackend.wire_call
        <repro.core.backends.base.KernelBackend.wire_call>`, on the
        backend active now) and refills ``bounds`` per request.  Call
        it from one thread at a time.
        """
        call = active_backend().wire_call(self._sat, bounds, out)
        num_queries = len(out)

        def answer() -> None:
            with trace("engine.batch_response_times", num_queries=num_queries):
                call()

        return answer

    def batch_optimal(
        self, queries: Union[Iterable[RangeQuery], QueryBatch]
    ) -> np.ndarray:
        """Effective OPT per query, shape ``(N,)``.

        Matches the scalar ``_effective_optimal`` semantics: OPT is taken
        over the query's buckets *inside* the grid (``ceil(|Q ∩ grid| /
        M)``), and a query clipped to nothing has OPT 0.
        """
        batch = QueryBatch.of(queries, self._sat.grid)
        buckets = np.prod(batch.hi - batch.lo, axis=1)
        return -(-buckets // self.num_disks)

    def batch_deviations(
        self, queries: Union[Iterable[RangeQuery], QueryBatch]
    ) -> np.ndarray:
        """Relative deviation ``(RT - OPT) / OPT`` per query, ``(N,)``.

        Matches :func:`repro.core.cost.relative_deviation` query by query,
        including the 0.0 convention for queries that clip to nothing.
        """
        batch = QueryBatch.of(queries, self._sat.grid)
        times = self.batch_response_times(batch)
        optima = self.batch_optimal(batch)
        safe = np.maximum(optima, 1)
        return np.where(
            optima == 0, 0.0, (times - optima) / safe
        )
