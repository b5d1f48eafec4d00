"""Query model: range, partial-match, and point queries over a grid.

Definitions follow the paper exactly:

* **Range query** — for every attribute ``i`` a closed interval
  ``[l_i, u_i]`` of partition indices; the query touches every bucket whose
  coordinates fall inside all intervals (a hyper-rectangle of buckets).
* **Partial-match query** — a range query where each attribute is either
  fixed to a single partition (``l_i = u_i``) or left unspecified
  (``[0, d_i - 1]``).
* **Point query** — a partial-match query with every attribute specified.

Queries are defined in *bucket coordinates*.  Translating attribute-value
predicates into bucket intervals is the grid file's job
(:mod:`repro.gridfile`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import QueryError
from repro.core.grid import Coords, Grid
from repro.obs.trace import trace

__all__ = [
    "QueryBatch",
    "RangeQuery",
    "all_placements",
    "partial_match_query",
    "placement_batch",
    "placement_extents",
    "point_query",
    "query_at",
    "shapes_with_area",
]


@dataclass(frozen=True)
class RangeQuery:
    """A hyper-rectangular query in bucket-coordinate space.

    ``lower[i] <= upper[i]`` and both bounds are inclusive, matching the
    paper's definition ``(l_i <= i_j <= u_i)``.

    Examples
    --------
    >>> q = RangeQuery((0, 2), (1, 5))
    >>> q.num_buckets
    8
    >>> q.side_lengths
    (2, 4)
    """

    lower: Coords
    upper: Coords

    def __post_init__(self) -> None:
        lower = tuple(int(c) for c in self.lower)
        upper = tuple(int(c) for c in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise QueryError(
                f"bound arity mismatch: lower={lower} upper={upper}"
            )
        if not lower:
            raise QueryError("a query needs at least one attribute")
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise QueryError(
                f"lower bound exceeds upper bound: lower={lower} upper={upper}"
            )
        if any(lo < 0 for lo in lower):
            raise QueryError(f"negative lower bound in {lower}")

    @property
    def ndim(self) -> int:
        """Number of attributes the query spans."""
        return len(self.lower)

    @property
    def side_lengths(self) -> Coords:
        """Number of partitions selected per attribute."""
        return tuple(hi - lo + 1 for lo, hi in zip(self.lower, self.upper))

    @property
    def num_buckets(self) -> int:
        """Total buckets touched, the product of the side lengths."""
        size = 1
        for side in self.side_lengths:
            size *= side
        return size

    def slices(self) -> Tuple[slice, ...]:
        """Numpy-compatible slices selecting the query's buckets."""
        return tuple(
            slice(lo, hi + 1) for lo, hi in zip(self.lower, self.upper)
        )

    def iter_buckets(self) -> Iterator[Coords]:
        """Yield every bucket the query touches, row-major."""
        return itertools.product(
            *(range(lo, hi + 1) for lo, hi in zip(self.lower, self.upper))
        )

    def contains_bucket(self, coords: Sequence[int]) -> bool:
        """Whether a bucket falls inside the query rectangle."""
        if len(coords) != self.ndim:
            return False
        return all(
            lo <= c <= hi
            for c, lo, hi in zip(coords, self.lower, self.upper)
        )

    def intersect(self, other: "RangeQuery") -> Optional["RangeQuery"]:
        """The overlap of two queries, or ``None`` if they are disjoint."""
        if other.ndim != self.ndim:
            raise QueryError(
                f"cannot intersect {self.ndim}-d and {other.ndim}-d queries"
            )
        lower = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        upper = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        if any(lo > hi for lo, hi in zip(lower, upper)):
            return None
        return RangeQuery(lower, upper)

    def clip_to(self, grid: Grid) -> Optional["RangeQuery"]:
        """Restrict the query to the grid, or ``None`` if fully outside."""
        if grid.ndim != self.ndim:
            raise QueryError(
                f"{self.ndim}-d query does not match {grid.ndim}-d grid"
            )
        full = RangeQuery((0,) * grid.ndim, tuple(d - 1 for d in grid.dims))
        return self.intersect(full)

    def fits_in(self, grid: Grid) -> bool:
        """Whether the query lies entirely inside the grid."""
        return grid.ndim == self.ndim and all(
            hi < d for hi, d in zip(self.upper, grid.dims)
        )

    def is_partial_match(self, grid: Grid) -> bool:
        """Whether each attribute is either a single value or the full domain."""
        if grid.ndim != self.ndim:
            return False
        return all(
            lo == hi or (lo == 0 and hi == d - 1)
            for lo, hi, d in zip(self.lower, self.upper, grid.dims)
        )

    def is_point(self) -> bool:
        """Whether the query selects exactly one bucket."""
        return self.lower == self.upper

    def __repr__(self) -> str:
        ranges = ", ".join(
            f"[{lo}..{hi}]" for lo, hi in zip(self.lower, self.upper)
        )
        return f"RangeQuery({ranges})"


class QueryBatch:
    """N queries pre-clipped to a grid, as half-open bounds arrays.

    Converting a sequence of :class:`RangeQuery` objects into ``(N, k)``
    bounds arrays is a per-query Python loop — for large batches it can
    cost as much as the kernel that answers them.  A ``QueryBatch`` does
    that conversion **once**, or skips it: the workload builders
    (:func:`placement_batch`, :func:`repro.workloads.queries.
    random_shape_batch`, :func:`repro.workloads.queries.
    partial_match_batch`) write the bounds arrays directly.  Every
    multi-query entry point (the engine, the cost functions, the
    evaluator, the replica planner, the availability checks and the
    open-system simulator) starts with :meth:`of`, so a batch is
    answered without building a query object and a query list is
    converted exactly once.

    Attributes
    ----------
    lo, hi:
        Clipped bounds, shape ``(N, k)`` int64 each, lower inclusive /
        upper exclusive, with ``0 <= lo <= hi <= dims`` (checked by the
        constructor; :meth:`clip` meets it by construction).  A query clipped to nothing has a zero-extent
        box (``hi == lo``), preserving the scalar path's 0-bucket
        semantics.
    dims:
        The grid extents the batch was clipped against; :meth:`of`
        refuses a batch clipped for a different grid.
    """

    __slots__ = ("lo", "hi", "dims")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, dims: Coords):
        lo = np.ascontiguousarray(lo, dtype=np.int64)
        hi = np.ascontiguousarray(hi, dtype=np.int64)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise QueryError(
                f"bounds must be matching (N, k) arrays, got "
                f"{lo.shape} and {hi.shape}"
            )
        if lo.shape[1] != len(dims):
            raise QueryError(
                f"{lo.shape[1]}-d bounds do not match grid {dims}"
            )
        extents = np.asarray(dims, dtype=np.int64)
        valid = (lo >= 0) & (lo <= hi) & (hi <= extents)
        if not valid.all():
            row = int(np.flatnonzero(~valid.all(axis=1))[0])
            raise QueryError(
                f"batch row {row} violates 0 <= lo <= hi <= dims: "
                f"lo={lo[row].tolist()} hi={hi[row].tolist()} "
                f"dims={tuple(dims)}"
            )
        self.lo = lo
        self.hi = hi
        self.dims = tuple(int(d) for d in dims)

    @classmethod
    def of(
        cls,
        queries: Union[Iterable[RangeQuery], "QueryBatch"],
        grid: Grid,
    ) -> "QueryBatch":
        """The workload ``queries`` as a batch on ``grid``.

        The one entry rule of every multi-query API: a batch passes
        through once its grid matches, and anything else (a list, a
        generator, any iterable of queries) is clipped by
        :meth:`from_queries` once.
        """
        if isinstance(queries, QueryBatch):
            if queries.dims != grid.dims:
                raise QueryError(
                    f"batch clipped for grid {queries.dims} does not "
                    f"match grid {grid.dims}"
                )
            return queries
        return cls.from_queries(queries, grid)

    @classmethod
    def from_queries(
        cls, queries: Iterable[RangeQuery], grid: Grid
    ) -> "QueryBatch":
        """Clip ``queries`` against ``grid`` (the one-time conversion)."""
        ndim = grid.ndim
        lower = []
        upper = []
        for query in queries:
            if query.ndim != ndim:
                raise QueryError(
                    f"{query.ndim}-d query does not match "
                    f"{ndim}-d grid"
                )
            lower.append(query.lower)
            upper.append(query.upper)
        return cls.clip(
            np.array(lower, dtype=np.int64).reshape(-1, ndim),
            np.array(upper, dtype=np.int64).reshape(-1, ndim),
            grid.dims,
        )

    @classmethod
    def clip(
        cls, lower: np.ndarray, upper: np.ndarray, dims: Coords
    ) -> "QueryBatch":
        """Clip inclusive ``(N, k)`` bounds against the grid ``dims``.

        The one clip rule: ``lower`` must satisfy ``0 <= lower <=
        upper`` (as every :class:`RangeQuery` and every decoded wire
        request does), and ``upper`` may overhang the grid.  The clipped
        rows meet the ``0 <= lo <= hi <= dims`` invariant by
        construction, so they are not checked again; a row wholly
        outside the grid becomes a zero-extent box at the grid's edge.
        """
        extents = np.asarray(dims, dtype=np.int64)
        batch = cls.__new__(cls)
        batch.lo = np.minimum(lower, extents)
        batch.hi = np.maximum(np.minimum(upper + 1, extents), batch.lo)
        batch.dims = tuple(int(d) for d in dims)
        return batch

    @classmethod
    def concatenate(cls, batches: Sequence["QueryBatch"]) -> "QueryBatch":
        """The rows of ``batches`` in order, as one batch on their grid."""
        if not batches:
            raise QueryError("nothing to concatenate")
        dims = batches[0].dims
        if any(batch.dims != dims for batch in batches):
            raise QueryError("cannot concatenate batches of different grids")
        return cls(
            np.concatenate([batch.lo for batch in batches]),
            np.concatenate([batch.hi for batch in batches]),
            dims,
        )

    def take(self, rows: Union[slice, np.ndarray]) -> "QueryBatch":
        """The batch of the selected rows (a slice or an index array)."""
        return QueryBatch(self.lo[rows], self.hi[rows], self.dims)

    def iter_queries(self) -> Iterator[RangeQuery]:
        """Each row as a :class:`RangeQuery`, lazily.

        For callers that need query objects; a row clipped to nothing
        has no query object and raises :class:`QueryError`.
        """
        for lower, upper in zip(self.lo.tolist(), self.hi.tolist()):
            yield RangeQuery(lower, tuple(u - 1 for u in upper))

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def __repr__(self) -> str:
        return (
            f"QueryBatch(n={len(self)}, dims={self.dims})"
        )


def partial_match_query(
    grid: Grid, specified: Sequence[Optional[int]]
) -> RangeQuery:
    """Build a partial-match query.

    Parameters
    ----------
    grid:
        The grid the query runs against (supplies domains for unspecified
        attributes).
    specified:
        One entry per attribute: a partition index to fix that attribute, or
        ``None`` to leave it unspecified.

    Examples
    --------
    >>> q = partial_match_query(Grid((4, 4)), [2, None])
    >>> (q.lower, q.upper)
    ((2, 0), (2, 3))
    """
    if len(specified) != grid.ndim:
        raise QueryError(
            f"expected {grid.ndim} attribute specs, got {len(specified)}"
        )
    lower = []
    upper = []
    for value, extent in zip(specified, grid.dims):
        if value is None:
            lower.append(0)
            upper.append(extent - 1)
        else:
            value = int(value)
            if not 0 <= value < extent:
                raise QueryError(
                    f"specified value {value} outside domain [0, {extent})"
                )
            lower.append(value)
            upper.append(value)
    return RangeQuery(tuple(lower), tuple(upper))


def point_query(grid: Grid, coords: Sequence[int]) -> RangeQuery:
    """A query selecting the single bucket at ``coords``."""
    coords = grid.validate_coords(coords)
    return RangeQuery(coords, coords)


def query_at(origin: Sequence[int], shape: Sequence[int]) -> RangeQuery:
    """A range query of the given ``shape`` with lower corner at ``origin``."""
    origin = tuple(int(c) for c in origin)
    shape = tuple(int(s) for s in shape)
    if len(origin) != len(shape):
        raise QueryError(
            f"origin arity {len(origin)} != shape arity {len(shape)}"
        )
    if any(s <= 0 for s in shape):
        raise QueryError(f"query side lengths must be positive, got {shape}")
    upper = tuple(o + s - 1 for o, s in zip(origin, shape))
    return RangeQuery(origin, upper)


def placement_extents(
    grid: Grid, shape: Sequence[int]
) -> Tuple[Coords, Coords]:
    """``shape`` as ints and its number of placements along each axis.

    The extents are ``d_j - s_j + 1``, clamped at 0 for a shape that
    does not fit; they are the shape of every per-placement sweep.
    Raises :class:`QueryError` for a wrong arity or a side below 1.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != grid.ndim:
        raise QueryError(
            f"shape arity {len(shape)} does not match grid {grid.dims}"
        )
    if any(s <= 0 for s in shape):
        raise QueryError(f"query side lengths must be positive, got {shape}")
    return shape, tuple(max(d - s + 1, 0) for s, d in zip(shape, grid.dims))


def placement_batch(grid: Grid, shape: Sequence[int]) -> QueryBatch:
    """Every placement of a query of the given shape inside the grid.

    Rows are in row-major origin order (the order of
    :func:`all_placements`); a shape that does not fit gives an empty
    batch.  The origins are one ``np.indices`` call; no query object is
    built.
    """
    shape, extents = placement_extents(grid, shape)
    count = math.prod(extents)
    with trace("workload.batch", kind="placements", num_queries=count):
        origins = np.indices(extents, dtype=np.int64).reshape(
            grid.ndim, count
        ).T
        sides = np.asarray(shape, dtype=np.int64)
        return QueryBatch(origins, origins + sides, grid.dims)


def all_placements(grid: Grid, shape: Sequence[int]) -> Iterator[RangeQuery]:
    """Every placement of a query of the given shape inside the grid.

    This is how the experiments compute *exact* average response times: the
    mean over all placements replaces the paper's random sampling with a
    zero-variance enumeration (feasible because cost evaluation is cheap).
    The query-object view of :func:`placement_batch`.
    """
    return placement_batch(grid, shape).iter_queries()


def shapes_with_area(
    grid: Grid, area: int, max_shapes: Optional[int] = None
) -> Iterator[Coords]:
    """All query shapes (side-length vectors) of a given bucket count.

    Yields every factorization ``s_1 * ... * s_k = area`` with
    ``s_j <= d_j``, in lexicographic order.  ``max_shapes`` truncates the
    enumeration (useful for very composite areas in high dimension).
    """
    if area <= 0:
        raise QueryError(f"query area must be positive, got {area}")

    def factorizations(remaining: int, axis: int) -> Iterator[Coords]:
        if axis == grid.ndim - 1:
            if remaining <= grid.dims[axis]:
                yield (remaining,)
            return
        for side in range(1, min(remaining, grid.dims[axis]) + 1):
            if remaining % side == 0:
                for rest in factorizations(remaining // side, axis + 1):
                    yield (side,) + rest

    shapes = factorizations(area, 0)
    if max_shapes is not None:
        shapes = itertools.islice(shapes, max_shapes)
    return shapes
