"""Bounded cross-experiment cache of allocations and their engines.

Every experiment sweep re-materializes the same ``(scheme, grid, M)``
triples — E1 through E5 alone rebuild the paper's four schemes on the
default grid a dozen times, and each rebuild also paid a fresh set of
prefix sums.  Scheme allocation is contractually deterministic (the QA405
contract rejects nondeterministic ``allocate``), so the triple fully
determines the table and caching is semantics-free.

The cache is content-addressed one level deeper than the name: the key
includes the *factory object* currently registered under the scheme name,
so re-registering a different scheme under an old name (``replace=True``,
:func:`~repro.core.registry.temporary_scheme`) can never serve a stale
allocation.  Entries hold the :class:`~repro.core.allocation.DiskAllocation`
and, built lazily on first shape query, its
:class:`~repro.core.engine.ResponseTimeEngine`.  Eviction is LRU with a
bounded entry count; hit/miss/eviction counters are exposed for reports.

A process-wide default cache (:func:`global_cache`) is shared by every
:class:`~repro.core.evaluator.SchemeEvaluator` unless one is injected.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.core.allocation import DiskAllocation
from repro.core.engine import ResponseTimeEngine
from repro.core.exceptions import IntegrityError
from repro.core.grid import Grid
from repro.core.sat import SummedAreaTable
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry

_LOG = get_logger("repro.core.cache")

__all__ = [
    "AllocationCache",
    "CacheStats",
    "global_cache",
    "reset_global_cache",
    "resident_nbytes",
]

#: Default maximum number of cached (scheme, grid, M) entries.
DEFAULT_MAXSIZE = 128


def resident_nbytes(array) -> Optional[int]:
    """Bytes of ``array``'s buffer actually resident in RAM, or None.

    An mmap-backed SAT has a *mapped* size (the full logical table) and
    a usually much smaller *resident* set — only the pages the kernel
    has faulted in.  ``mincore(2)`` reports exactly that, page by page.
    Returns None where the probe is unavailable (non-Linux libc, an
    exotic buffer) so callers can render "unknown" instead of repeating
    the old lie of logical size == residency.
    """
    import ctypes
    import mmap as _mmap

    try:
        libc = ctypes.CDLL(None, use_errno=True)  # qa503: allow — read-only mincore(2) residency probe, no artifact loading
        mincore = libc.mincore
    except (OSError, AttributeError):
        return None
    nbytes = int(array.nbytes)
    if nbytes == 0:
        return 0
    page = _mmap.PAGESIZE
    address = int(array.ctypes.data)
    start = address - (address % page)
    span = (address + nbytes) - start
    pages = (span + page - 1) // page
    vector = (ctypes.c_ubyte * pages)()
    mincore.argtypes = [
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_ubyte),
    ]
    mincore.restype = ctypes.c_int
    if mincore(ctypes.c_void_p(start), ctypes.c_size_t(span), vector):
        return None
    resident_pages = sum(byte & 1 for byte in vector)
    return min(resident_pages * page, nbytes)


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    entries: int
    maxsize: int
    #: Spilled SATs rebuilt after failing their integrity check
    #: (:meth:`AllocationCache.mmap_engine`).
    rebuilds: int = 0
    #: Mmap-engine lookups served from the open-handle memo (the file
    #: was already mapped and verified by this process).
    mmap_hits: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """``hits / requests`` (0.0 when the cache was never consulted)."""
        return self.hits / self.requests if self.requests else 0.0

    def render(self) -> str:
        """One-line human-readable summary for report footers."""
        return (
            f"allocation cache: {self.hits} hit(s), {self.misses} miss(es) "
            f"({self.hit_rate:.0%} hit rate), {self.entries}/{self.maxsize} "
            f"entries, {self.evictions} eviction(s)"
        )


class _Entry:
    """One cached allocation with its lazily built engine."""

    __slots__ = ("allocation", "_engine")

    def __init__(self, allocation: DiskAllocation):
        self.allocation = allocation
        self._engine: Optional[ResponseTimeEngine] = None

    @property
    def engine(self) -> ResponseTimeEngine:
        if self._engine is None:
            self._engine = ResponseTimeEngine(self.allocation)
        return self._engine

    @property
    def engine_built(self) -> bool:
        return self._engine is not None


class AllocationCache:
    """LRU cache of materialized allocations keyed on (scheme, grid, M).

    Examples
    --------
    >>> cache = AllocationCache(maxsize=4)
    >>> a = cache.allocation("dm", Grid((4, 4)), 2)
    >>> cache.allocation("dm", Grid((4, 4)), 2) is a
    True
    >>> cache.stats().hits
    1
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        maxsize = int(maxsize)
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive: {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Tuple[Hashable, ...], _Entry]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rebuilds = 0
        self._mmap_hits = 0
        #: Open mmap engines by (scheme, dims, M, path): the file is
        #: the cache for the *data*, but re-opening means re-verifying
        #: and a private second mapping — memoize the open handle.
        self._mmap_engines: Dict[
            Tuple[Hashable, ...], ResponseTimeEngine
        ] = {}

    @property
    def maxsize(self) -> int:
        """Upper bound on the number of cached entries."""
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def _key(
        self, scheme_name: str, grid: Grid, num_disks: int
    ) -> Tuple[Hashable, ...]:
        from repro.core.registry import scheme_factory

        # The factory object disambiguates same-name re-registrations.
        # No backend in the key: neither the table nor its SAT depends on
        # one, and engine queries pick the active backend per call.
        return (scheme_name, scheme_factory(scheme_name), grid.dims,
                int(num_disks))

    def _lookup(
        self, scheme_name: str, grid: Grid, num_disks: int
    ) -> _Entry:
        key = self._key(scheme_name, grid, num_disks)
        entry = self._entries.get(key)
        if entry is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return entry
        self._misses += 1
        from repro.core.registry import get_scheme

        allocation = get_scheme(scheme_name).allocate(grid, int(num_disks))
        entry = _Entry(allocation)
        self._entries[key] = entry
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1
        return entry

    def allocation(
        self, scheme_name: str, grid: Grid, num_disks: int
    ) -> DiskAllocation:
        """The (cached) allocation for the triple; materialized on miss."""
        return self._lookup(scheme_name, grid, num_disks).allocation

    def engine(
        self, scheme_name: str, grid: Grid, num_disks: int
    ) -> ResponseTimeEngine:
        """The (cached) integral-image engine for the triple."""
        return self._lookup(scheme_name, grid, num_disks).engine

    def mmap_engine(
        self,
        scheme_name: str,
        grid: Grid,
        num_disks: int,
        path: Union[str, os.PathLike],
        byte_budget: Optional[int] = None,
    ) -> ResponseTimeEngine:
        """An engine over a spilled SAT, rebuilt in place if corrupt.

        Opens ``path`` through the integrity-verified
        :meth:`~repro.core.sat.SummedAreaTable.open_mmap`; when the
        artifact fails its check (truncation, a flipped bit, a torn
        manifest) the allocation is deterministic (QA405), so the table
        is simply rebuilt at the same path with
        :meth:`~repro.core.sat.SummedAreaTable.build_chunked` — logged
        and counted (``integrity.sat_rebuilds``), never served corrupt.

        Mmap engines are not held in the LRU (the file is the cache for
        the data), but the *open handle* is memoized: a repeat lookup
        reuses the already-verified mapping instead of paying a second
        verification pass and a second private map.
        """
        memo_key = (
            scheme_name,
            grid.dims,
            int(num_disks),
            os.fspath(path),
        )
        cached = self._mmap_engines.get(memo_key)
        if cached is not None and cached.sat.array is not None:
            self._mmap_hits += 1
            return cached
        try:
            sat = SummedAreaTable.open_mmap(path)
        except IntegrityError as exc:
            _LOG.warning(
                "spilled SAT %s failed verification, rebuilding: %s",
                os.fspath(path),
                exc,
            )
            global_registry().inc("integrity.sat_rebuilds")
            self._rebuilds += 1
            from repro.core.registry import get_scheme

            sat = SummedAreaTable.build_chunked(
                get_scheme(scheme_name),
                grid,
                int(num_disks),
                byte_budget=byte_budget,
                path=path,
                resume=False,
            )
        engine = ResponseTimeEngine.from_sat(sat)
        self._mmap_engines[memo_key] = engine
        return engine

    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._entries),
            maxsize=self._maxsize,
            rebuilds=self._rebuilds,
            mmap_hits=self._mmap_hits,
        )

    def entry_report(self) -> List[Dict[str, object]]:
        """Per-entry details for ``--cache-stats`` diagnostics.

        One dict per cached entry, in LRU order (least recent first):
        scheme name, grid dims, disk count, table dtype and bytes,
        and whether the integral-image engine has been built (and its
        bytes).  Every
        row also reports ``mapped_nbytes`` (address-space footprint)
        next to ``resident_nbytes`` (pages actually in RAM, None where
        unmeasurable): for in-RAM tables the two agree, but an
        mmap-backed SAT maps its full logical size while touching only
        the pages queries fault in — reporting the logical size as
        residency is exactly the overstatement this separates.  The
        memoized mmap engines get their own ``kind="mmap-sat"`` rows;
        previously they were invisible here despite holding the largest
        mappings in the process.
        """
        report: List[Dict[str, object]] = []
        for key, entry in self._entries.items():
            scheme_name, _factory, dims, num_disks = key
            allocation = entry.allocation
            engine_nbytes = (
                entry.engine.nbytes() if entry.engine_built else 0
            )
            mapped = allocation.nbytes + engine_nbytes
            report.append(
                {
                    "kind": "table",
                    "scheme": scheme_name,
                    "dims": dims,
                    "num_disks": num_disks,
                    "table_dtype": str(allocation.table.dtype),
                    "table_nbytes": allocation.nbytes,
                    "engine_built": entry.engine_built,
                    "engine_nbytes": engine_nbytes,
                    # In-RAM tables are fully materialized: mapped ==
                    # resident by construction.
                    "mapped_nbytes": mapped,
                    "resident_nbytes": mapped,
                }
            )
        for memo_key, engine in self._mmap_engines.items():
            scheme_name, dims, num_disks, path = memo_key
            array = engine.sat.array
            if array is None:
                continue
            mapped = int(array.nbytes)
            report.append(
                {
                    "kind": "mmap-sat",
                    "scheme": scheme_name,
                    "dims": dims,
                    "num_disks": num_disks,
                    "path": path,
                    "table_dtype": str(array.dtype),
                    "table_nbytes": mapped,
                    "engine_built": True,
                    "engine_nbytes": 0,
                    "mapped_nbytes": mapped,
                    "resident_nbytes": resident_nbytes(array),
                }
            )
        return report

    def publish_metrics(self, registry) -> None:
        """Export the counters into an obs metrics registry.

        Sets the ``cache.*`` counters to the cache's *cumulative* values
        with :meth:`repro.obs.metrics.MetricsRegistry.set_counter`
        (rather than incrementing), so the snapshot
        :meth:`~repro.obs.metrics.MetricsRegistry.to_json_dict` writes
        holds the totals.
        Called at publication points (end of a CLI run, a daemon's
        drain), never on the lookup hot path, so instrumentation stays
        free when unused.
        """
        stats = self.stats()
        registry.set_counter("cache.hits", stats.hits)
        registry.set_counter("cache.misses", stats.misses)
        registry.set_counter("cache.evictions", stats.evictions)
        registry.set_counter("cache.rebuilds", stats.rebuilds)
        registry.set_counter("cache.mmap_hits", stats.mmap_hits)
        registry.set_counter("cache.entries", stats.entries)
        registry.set_counter("cache.maxsize", stats.maxsize)

    def clear(self) -> None:
        """Drop all entries (open mmap memos included); counters stay."""
        self._entries.clear()
        self._mmap_engines.clear()

    def as_report_dict(self) -> Dict[str, float]:
        """Counters as a plain dict for machine-readable reports."""
        stats = self.stats()
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "entries": stats.entries,
            "maxsize": stats.maxsize,
            "hit_rate": stats.hit_rate,
            "rebuilds": stats.rebuilds,
            "mmap_hits": stats.mmap_hits,
        }


_GLOBAL_CACHE = AllocationCache()


def global_cache() -> AllocationCache:
    """The process-wide cache shared by all evaluators by default."""
    return _GLOBAL_CACHE


def reset_global_cache(maxsize: int = DEFAULT_MAXSIZE) -> AllocationCache:
    """Replace the process-wide cache (counters reset); returns the new one."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = AllocationCache(maxsize=maxsize)
    return _GLOBAL_CACHE
