"""Batch evaluation of declustering schemes against query workloads.

This is the measurement harness behind every experiment: given a grid, a
disk count, a set of schemes, and a description of the queries (explicit
query list, or shapes evaluated over *all* their placements), it produces
per-scheme summary statistics comparable to the paper's plotted series —
average response time, average optimal, and the deviation between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.cache import AllocationCache
from repro.core.cost import (
    optimal_response_time,
    optimal_times,
    response_times,
)
from repro.core.engine import ResponseTimeEngine
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery, shapes_with_area
from repro.core.registry import scheme_label

__all__ = [
    "EvaluationResult",
    "SchemeEvaluator",
    "evaluate_allocation_on_queries",
    "evaluate_allocation_on_shapes",
    "rank_schemes",
]


@dataclass(frozen=True)
class EvaluationResult:
    """Summary of one scheme's performance on one workload.

    Attributes mirror the paper's reporting: response times are in bucket
    accesses (one parallel disk read per time unit).
    """

    scheme: str
    num_queries: int
    mean_response_time: float
    mean_optimal: float
    worst_response_time: int
    fraction_optimal: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_additive_deviation(self) -> float:
        """Mean of ``RT - OPT`` across the workload."""
        return self.mean_response_time - self.mean_optimal

    @property
    def mean_relative_deviation(self) -> float:
        """``(mean RT - mean OPT) / mean OPT`` — the paper's deviation metric."""
        if self.mean_optimal == 0:
            return 0.0
        return (
            self.mean_response_time - self.mean_optimal
        ) / self.mean_optimal

    @property
    def label(self) -> str:
        """Paper-style display label."""
        return scheme_label(self.scheme)


def evaluate_allocation_on_queries(
    allocation: DiskAllocation,
    queries: Union[Iterable[RangeQuery], QueryBatch],
    scheme_name: str = "custom",
    engine: Optional[ResponseTimeEngine] = None,
) -> EvaluationResult:
    """Evaluate a query iterable, or a query batch, on one allocation.

    ``queries`` passes :meth:`~repro.core.query.QueryBatch.of` once and
    is answered by :func:`~repro.core.cost.response_times` (on
    ``engine`` when given); results are bit-identical to the scalar
    per-query loop.  OPT is the effective optimum of each query's part
    inside the grid (0 for a query entirely outside it), the same
    clipping the response times use.
    """
    batch = QueryBatch.of(queries, allocation.grid)
    if not len(batch):
        raise QueryError("workload contains no queries")
    times = response_times(allocation, batch, engine=engine)
    optima = optimal_times(batch, allocation.num_disks)
    return EvaluationResult(
        scheme=scheme_name,
        num_queries=len(batch),
        mean_response_time=float(times.mean()),
        mean_optimal=float(optima.mean()),
        worst_response_time=int(times.max()),
        fraction_optimal=float((times == optima).mean()),
    )


def evaluate_allocation_on_shapes(
    allocation: DiskAllocation,
    shapes: Sequence[Sequence[int]],
    scheme_name: str = "custom",
    engine: Optional[ResponseTimeEngine] = None,
) -> EvaluationResult:
    """Evaluate shapes over *all* placements (exact, zero-variance means).

    Every placement of every shape counts as one query; shapes that do not
    fit in the grid are rejected.  Every shape is swept on one
    integral-image :class:`~repro.core.engine.ResponseTimeEngine`: the
    given ``engine`` (built on the same allocation), or one built here.
    """
    shapes = [tuple(int(s) for s in shape) for shape in shapes]
    if not shapes:
        raise QueryError("workload contains no shapes")
    if engine is None:
        engine = ResponseTimeEngine(allocation)
    all_times: List[np.ndarray] = []
    all_optima: List[np.ndarray] = []
    for shape in shapes:
        times = engine.sliding_response_times(shape)
        if times.size == 0:
            raise QueryError(
                f"shape {shape} does not fit in grid {allocation.grid.dims}"
            )
        area = int(np.prod(shape))
        opt = optimal_response_time(area, allocation.num_disks)
        all_times.append(times.ravel())
        all_optima.append(np.full(times.size, opt, dtype=np.int64))
    times = np.concatenate(all_times)
    optima = np.concatenate(all_optima)
    return EvaluationResult(
        scheme=scheme_name,
        num_queries=int(times.size),
        mean_response_time=float(times.mean()),
        mean_optimal=float(optima.mean()),
        worst_response_time=int(times.max()),
        fraction_optimal=float((times == optima).mean()),
    )


class SchemeEvaluator:
    """Evaluates a fixed set of schemes on one grid/disk configuration.

    Allocations (and their integral-image engines) come from a bounded
    cross-experiment :class:`~repro.core.cache.AllocationCache` — by
    default the process-wide one — so sweeping many workloads over the
    same configuration pays the allocation and prefix-sum cost once, even
    across separate evaluator instances and experiments.

    Parameters
    ----------
    grid / num_disks / schemes:
        The configuration under evaluation (default: the paper's schemes).
    cache:
        The allocation cache to draw from; ``None`` means the shared
        :func:`~repro.core.cache.global_cache`.  Every workload is
        answered on the cached
        :class:`~repro.core.engine.ResponseTimeEngine`.

    Examples
    --------
    >>> ev = SchemeEvaluator(Grid((8, 8)), num_disks=4, schemes=["dm", "fx"])
    >>> results = ev.evaluate_shapes([(2, 2)])
    >>> sorted(r.scheme for r in results)
    ['dm', 'fx']
    """

    def __init__(
        self,
        grid: Grid,
        num_disks: int,
        schemes: Optional[Sequence[str]] = None,
        cache: Optional[AllocationCache] = None,
    ):
        from repro.core.cache import global_cache
        from repro.core.registry import PAPER_SCHEMES

        self._grid = grid
        self._num_disks = int(num_disks)
        self._scheme_names = list(schemes or PAPER_SCHEMES)
        self._cache = cache if cache is not None else global_cache()

    @property
    def grid(self) -> Grid:
        """The configuration's grid."""
        return self._grid

    @property
    def num_disks(self) -> int:
        """The configuration's disk count."""
        return self._num_disks

    @property
    def scheme_names(self) -> List[str]:
        """Names of the schemes under evaluation."""
        return list(self._scheme_names)

    @property
    def cache(self) -> AllocationCache:
        """The allocation cache this evaluator draws from."""
        return self._cache

    def allocation(self, scheme_name: str) -> DiskAllocation:
        """The (cached) allocation produced by ``scheme_name``."""
        return self._cache.allocation(
            scheme_name, self._grid, self._num_disks
        )

    def engine(self, scheme_name: str) -> ResponseTimeEngine:
        """The (cached) integral-image engine for ``scheme_name``."""
        return self._cache.engine(scheme_name, self._grid, self._num_disks)

    def evaluate_queries(
        self, queries: Union[Iterable[RangeQuery], QueryBatch]
    ) -> List[EvaluationResult]:
        """All schemes against a query iterable or a query batch.

        ``queries`` passes :meth:`~repro.core.query.QueryBatch.of` once
        for all schemes, and each scheme answers it on its cached engine
        (one gather per SAT corner for the whole workload).
        """
        batch = QueryBatch.of(queries, self._grid)
        return [
            evaluate_allocation_on_queries(
                self.allocation(name),
                batch,
                scheme_name=name,
                engine=self.engine(name),
            )
            for name in self._scheme_names
        ]

    def evaluate_shapes(
        self, shapes: Sequence[Sequence[int]]
    ) -> List[EvaluationResult]:
        """All schemes against shapes evaluated over all placements."""
        return [
            evaluate_allocation_on_shapes(
                self.allocation(name),
                shapes,
                scheme_name=name,
                engine=self.engine(name),
            )
            for name in self._scheme_names
        ]

    def evaluate_area(
        self, area: int, max_shapes: Optional[int] = None
    ) -> List[EvaluationResult]:
        """All schemes against every shape of the given bucket count."""
        shapes = list(shapes_with_area(self._grid, area, max_shapes))
        if not shapes:
            raise QueryError(
                f"no query shape of area {area} fits in grid "
                f"{self._grid.dims}"
            )
        return self.evaluate_shapes(shapes)


def rank_schemes(results: Iterable[EvaluationResult]) -> List[EvaluationResult]:
    """Results sorted best-first by mean response time (ties: by name)."""
    return sorted(results, key=lambda r: (r.mean_response_time, r.scheme))
