"""Per-disk summed-area tables: in-RAM, and chunked/memory-mapped.

The :class:`~repro.core.engine.ResponseTimeEngine` answers every query
through one data structure: the stacked k-dimensional summed-area table
(SAT) of the ``M`` disk-indicator arrays,

    sat[i_1, ..., i_k, m] = |{ b on disk m : b_j < i_j for all j }|,

zero-padded with one leading plane per spatial axis so inclusion–
exclusion slices are uniform.  Disks are the **last** axis, in RAM and
on disk alike: a query's response time is the maximum over the ``M``
per-disk counts, so every 2^k-corner lookup reads one contiguous
``M``-vector.  This module owns that structure:

* :meth:`SummedAreaTable.build` — the in-RAM build: the whole
  allocation table as a single tile of the tile kernel, whose carry is
  the leading zero plane;
* :meth:`SummedAreaTable.build_chunked` — a **tiled build that never
  materializes the whole grid**: the allocation is generated tile by
  tile (:meth:`~repro.schemes.base.DeclusteringScheme.disk_array_block`),
  the same tile kernel runs per tile, writing straight into the tile's
  contiguous slab of a memory-mapped ``.npy`` file, and the
  leading-axis sum is carried across tiles as one plane, all under a
  configurable byte budget.
  This is what makes beyond-RAM grids (1024³ and up — billions of
  buckets, a scenario the 1994 paper could not touch) buildable and
  queryable on ordinary hardware;
* :meth:`SummedAreaTable.open_mmap` — reopen a spilled table zero-copy
  (the ``.npy`` header carries shape and dtype, so the path alone is a
  complete handle);
* :meth:`SummedAreaTable.corner_counts` — the batched 2^k-corner gather,
  one fancy-index gather per corner for in-RAM and mapped tables alike.

The tile kernel is the active backend's
(:meth:`~repro.core.backends.base.KernelBackend.fill_tile`; numpy's
cumsum passes or ``cnative``'s one-pass C sweep).  All arithmetic is
exact integer work; the in-RAM and spilled tables of the same
allocation are bit-identical arrays on every backend, which the QA423
backend contract certifies.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import AllocationError, QueryError
from repro.core.grid import Grid
from repro.core.integrity import (
    MANIFEST_SCHEMA_VERSION,
    SAT_JOURNAL_KIND,
    SatManifest,
    atomic_write_json,
    sha256_hex,
    verify_sat,
)
from repro.faults.io import maybe_io_fault
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry
from repro.obs.trace import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schemes.base import DeclusteringScheme

_LOG = get_logger("repro.core.sat")

__all__ = [
    "DEFAULT_BYTE_BUDGET",
    "SummedAreaTable",
    "build_carry_path",
    "build_journal_path",
    "build_partial_path",
    "sat_byte_budget",
    "sat_dtype",
]

#: Default working-memory budget (bytes) for chunked builds: 256 MiB,
#: small enough for CI runners, large enough that the paper-scale grids
#: never actually chunk.
DEFAULT_BYTE_BUDGET = 256 * 1024 * 1024

#: Environment variable overriding the default byte budget.
BYTE_BUDGET_ENV = "REPRO_SAT_BUDGET"

def sat_byte_budget(budget: Optional[int] = None) -> int:
    """Resolve the working-memory budget: argument > env var > default."""
    if budget is None:
        raw = os.environ.get(BYTE_BUDGET_ENV)
        budget = int(raw) if raw else DEFAULT_BYTE_BUDGET
    budget = int(budget)
    if budget <= 0:
        raise AllocationError(f"SAT byte budget must be positive: {budget}")
    return budget


def sat_dtype(num_buckets: int) -> np.dtype:
    """Smallest signed dtype that can hold any SAT entry.

    Entries never exceed the bucket count, so int32 suffices up to
    2^31 - 1 buckets.  Any window or query count fits the same dtype,
    so sums of corners may even wrap in it and still come out exact.
    """
    return np.dtype(
        np.int32 if num_buckets <= np.iinfo(np.int32).max else np.int64
    )


def _padded_shape(num_disks: int, dims: Sequence[int]) -> Tuple[int, ...]:
    return tuple(int(d) + 1 for d in dims) + (int(num_disks),)


# ----------------------------------------------------------------------
# Crash-safe chunked-build sidecars
# ----------------------------------------------------------------------
#
# A chunked build never writes the final path directly.  It writes
# ``<path>.partial`` plus a tile journal and a carry-plane checkpoint,
# each updated with an atomic rename after every completed tile, then
# renames the partial into place.  A SIGKILL at any moment therefore
# leaves either (a) nothing at the final path plus a resumable
# partial/journal pair, or (b) the finished table — never a torn file
# under the real name.


def build_partial_path(path: Union[str, os.PathLike]) -> str:
    """Where a chunked build stages its output before the final rename."""
    return os.fspath(path) + ".partial"


def build_journal_path(path: Union[str, os.PathLike]) -> str:
    """The tile journal recording how far a chunked build has gotten."""
    return os.fspath(path) + ".journal.json"


def build_carry_path(path: Union[str, os.PathLike]) -> str:
    """The carry-plane checkpoint matching the journal's last tile."""
    return os.fspath(path) + ".carry.npy"


def _remove_quietly(*paths: str) -> None:
    for p in paths:
        try:
            os.unlink(p)
        except OSError:
            pass


class SummedAreaTable:
    """The stacked per-disk SAT, backed by RAM or by a memory-mapped file.

    Attributes
    ----------
    array:
        The ``(d_1 + 1, ..., d_k + 1, M)`` table — an ``ndarray`` for
        in-RAM tables, an ``np.memmap`` view for spilled ones.  Read-only
        either way.
    """

    __slots__ = ("array", "grid", "num_disks", "path")

    def __init__(
        self,
        array: np.ndarray,
        grid: Grid,
        num_disks: int,
        path: Optional[str] = None,
    ):
        expected = _padded_shape(num_disks, grid.dims)
        if tuple(array.shape) != expected:
            raise AllocationError(
                f"SAT shape {tuple(array.shape)} does not match "
                f"grid {grid.dims} with M={num_disks} (expected {expected})"
            )
        self.array = array
        self.grid = grid
        self.num_disks = int(num_disks)
        self.path = path

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, allocation: DiskAllocation) -> "SummedAreaTable":
        """In-RAM build from a materialized allocation (the default path).

        The whole table is one tile: the active backend's tile kernel
        fills every row past the leading zero plane, which is its carry.
        """
        from repro.core.backends import active_backend

        table = allocation.table
        sat = np.zeros(
            _padded_shape(allocation.num_disks, table.shape),
            dtype=sat_dtype(table.size),
        )
        active_backend().fill_tile(
            sat[1:], table, allocation.num_disks, sat[0]
        )
        sat.setflags(write=False)
        return cls(sat, allocation.grid, allocation.num_disks)

    @classmethod
    def _tile_cost(cls, grid: Grid, num_disks: int) -> Tuple[int, int]:
        """``(per_row_bytes, carry_bytes)`` of one chunked-build tile.

        Per row: the SAT chunk row per disk, plus the int64 coordinate
        arithmetic of the allocation block (ndim temporaries).  The
        chunk is written in place in the mapped file, but those are
        still the pages a tile touches, so the estimate — and with it
        every tile boundary and manifest — is what it always was.
        """
        rest_padded = 1
        for d in grid.dims[1:]:
            rest_padded *= d + 1
        itemsize = sat_dtype(grid.num_buckets).itemsize
        per_row = num_disks * rest_padded * itemsize
        per_row += (grid.ndim + 1) * rest_padded * 8
        carry = num_disks * rest_padded * itemsize
        return per_row, carry

    @classmethod
    def tile_rows(
        cls, grid: Grid, num_disks: int, byte_budget: Optional[int] = None
    ) -> int:
        """Rows of the leading axis one build tile may span under the budget.

        The tile working set is the per-tile SAT chunk (``M`` disks ×
        rows × padded trailing extents), the tile's allocation block, and
        the carry plane; the row count is what makes that fit.
        """
        budget = sat_byte_budget(byte_budget)
        per_row, carry = cls._tile_cost(grid, num_disks)
        rows = max(1, (budget - carry) // max(per_row, 1))
        return int(min(rows, grid.dims[0]))

    @classmethod
    def tile_working_set(
        cls, grid: Grid, num_disks: int, rows: int
    ) -> int:
        """Estimated peak bytes a ``rows``-row build tile touches.

        The inverse of :meth:`tile_rows` — benchmarks and the CI gate use
        it to certify a chunked build stayed within its byte budget.
        """
        per_row, carry = cls._tile_cost(grid, num_disks)
        return int(rows) * per_row + carry

    @classmethod
    def _load_build_journal(
        cls,
        path: str,
        dtype: np.dtype,
        shape: Tuple[int, ...],
        scheme_name: str,
    ) -> Optional[Dict[str, object]]:
        """A prior interrupted build's journal, validated, or ``None``.

        Returns the journal document only when every identity field
        (dtype, shape, scheme) matches the requested build, the partial
        file exists, the tile bookkeeping is self-consistent, and the
        carry checkpoint's digest matches what the journal recorded —
        anything less and resuming could not be byte-identical, so the
        stale sidecars are removed and the build starts fresh.
        """
        journal_file = build_journal_path(path)
        carry_file = build_carry_path(path)
        partial = build_partial_path(path)

        def _discard(why: str) -> None:
            _LOG.warning(
                "discarding unusable build journal for %s: %s", path, why
            )
            _remove_quietly(journal_file, carry_file, partial)

        try:
            with open(journal_file) as handle:
                journal = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            _discard(f"unreadable ({exc!r})")
            return None
        try:
            ok = (
                int(journal["schema"]) == MANIFEST_SCHEMA_VERSION
                and journal["kind"] == SAT_JOURNAL_KIND
                and str(journal["dtype"]) == dtype.str
                and tuple(journal["shape"]) == shape
                and str(journal.get("scheme", "")) == scheme_name
                and int(journal["tile_rows"]) >= 1
                and 0 < int(journal["next_start"]) <= shape[0] - 1
                and len(journal["tile_starts"])
                == len(journal["tile_digests"])
            )
        except (KeyError, TypeError, ValueError):
            ok = False
        if ok:
            rows = int(journal["tile_rows"])
            expected_starts = list(
                range(0, int(journal["next_start"]), rows)
            )
            ok = [int(s) for s in journal["tile_starts"]] == (
                expected_starts
            )
        if not ok:
            _discard("identity or tile bookkeeping mismatch")
            return None
        if not os.path.exists(partial):
            _discard("partial file is gone")
            return None
        try:
            carry = np.load(carry_file)  # qa503: allow — digest-checked
            # against the journal on the next line before any use.
            carry = np.ascontiguousarray(carry)
        except (OSError, ValueError):
            _discard("carry checkpoint unreadable")
            return None
        if (
            carry.dtype != dtype
            or carry.shape != shape[1:]
            or sha256_hex(carry.data) != journal.get("carry_sha256")
        ):
            _discard("carry checkpoint does not match the journal")
            return None
        journal["carry"] = carry
        return journal

    @classmethod
    def build_chunked(
        cls,
        scheme: "DeclusteringScheme",
        grid: Grid,
        num_disks: int,
        byte_budget: Optional[int] = None,
        path: Optional[Union[str, os.PathLike]] = None,
        resume: bool = True,
    ) -> "SummedAreaTable":
        """Tiled build spilling to a memory-mapped ``.npy`` file.

        The grid is swept in tiles of :meth:`tile_rows` rows along the
        leading axis; each tile's allocation block comes from
        ``scheme.disk_array_block`` (so the full table is never
        materialized), and the active backend's tile kernel writes its
        prefix sums, the carried leading-axis sum included, straight
        into the tile's slab of the mapped file (with disks last, a
        tile is one contiguous slab).  ``path``
        defaults to a fresh temp file (``REPRO_SAT_DIR`` overrides the
        directory); the caller owns the file's lifetime.

        The build is **crash-safe and resumable**: it stages into
        ``<path>.partial``, journals every completed tile (plus the
        carry plane) with atomic renames, and only renames the finished
        table into place.  Killed at any point, a re-run with the same
        ``path`` picks up from the last journaled tile, so the resumed
        table is byte-identical to an uninterrupted build (the journal's
        tile size wins even if the byte budget changed).
        ``resume=False`` ignores and removes any prior journal; without
        a journal the build starts fresh.
        Tile digests are streamed into a sidecar manifest that
        :meth:`open_mmap` verifies (see :mod:`repro.core.integrity`).
        A build that *raises* cleans up after itself: temp-file builds
        remove everything they created; explicit-path builds keep the
        partial + journal set for a later resume (``repro doctor``
        reports and can garbage-collect them).
        """
        from repro.core.backends import active_backend

        owns_temp = path is None
        if path is None:
            directory = os.environ.get(
                "REPRO_SAT_DIR"
            ) or tempfile.gettempdir()
            fd, path = tempfile.mkstemp(
                prefix="repro-sat-", suffix=".npy", dir=directory
            )
            os.close(fd)
        path = os.fspath(path)
        partial = build_partial_path(path)
        journal_file = build_journal_path(path)
        carry_file = build_carry_path(path)
        dims = grid.dims
        dtype = sat_dtype(grid.num_buckets)
        shape = _padded_shape(num_disks, dims)
        scheme_name = getattr(scheme, "name", "") or ""

        journal = None
        if resume and not owns_temp:
            journal = cls._load_build_journal(
                path, dtype, shape, scheme_name
            )
        elif not resume:
            _remove_quietly(journal_file, carry_file, partial)

        rows = (
            int(journal["tile_rows"])
            if journal is not None
            else cls.tile_rows(grid, num_disks, byte_budget)
        )
        out = None
        try:
            with trace(
                "sat.build_chunked",
                dims=list(dims),
                num_disks=int(num_disks),
                tile_rows=rows,
                resumed=journal is not None,
            ):
                if journal is not None:
                    first_start = int(journal["next_start"])
                    tile_starts = [
                        int(s) for s in journal["tile_starts"]
                    ]
                    tile_digests = [
                        str(d) for d in journal["tile_digests"]
                    ]
                    carry = journal["carry"]
                    out = np.lib.format.open_memmap(
                        partial, mode="r+"
                    )  # qa503: allow — resuming our own journaled
                    # partial; identity was validated against the
                    # journal, and the final table is re-manifested.
                    if (
                        out.dtype != dtype
                        or tuple(out.shape) != shape
                    ):
                        raise AllocationError(
                            f"{partial} does not match its build "
                            f"journal (dtype {out.dtype}, shape "
                            f"{tuple(out.shape)})"
                        )
                    global_registry().inc("sat.build_resumes")
                    _LOG.info(
                        "resuming chunked SAT build of %s at row %d/%d",
                        path,
                        first_start,
                        dims[0],
                    )
                else:
                    first_start = 0
                    tile_starts = []
                    tile_digests = []
                    carry = np.zeros(shape[1:], dtype=dtype)
                    out = np.lib.format.open_memmap(
                        partial,
                        mode="w+",
                        dtype=dtype,
                        shape=shape,
                    )  # qa503: allow — creating the staged partial
                    # this build owns; nothing is being trusted.

                backend = active_backend()
                for start in range(first_start, dims[0], rows):
                    stop = min(start + rows, dims[0])
                    # The tile is computed in place in its mapped slab;
                    # whatever a killed run left there is overwritten.
                    chunk = out[start + 1 : stop + 1]
                    backend.fill_tile(
                        chunk,
                        scheme.disk_array_block(
                            grid, num_disks, start, stop
                        ),
                        num_disks,
                        carry,
                    )
                    carry = chunk[-1].copy()
                    # Tile data must be durable before the journal may
                    # claim it — flush, then checkpoint, then journal.
                    out.flush()
                    tile_starts.append(start)
                    tile_digests.append(sha256_hex(chunk.data))
                    del chunk
                    cls._checkpoint_tile(
                        journal_file,
                        carry_file,
                        carry,
                        dtype,
                        shape,
                        scheme_name,
                        rows,
                        stop,
                        tile_starts,
                        tile_digests,
                    )
                    # Injection point: the fault strikes *between*
                    # tiles — the just-committed tile is durable, so an
                    # ``exit``-mode plan is exactly "SIGKILL at a tile
                    # boundary" and a later run must resume from here.
                    maybe_io_fault("sat.write", f"tile@{start}")
                out.flush()
            # Release the writable mapping, then publish: rename the
            # finished partial into place, write the manifest, drop the
            # build sidecars.  A crash between these steps leaves a
            # valid table that is at worst missing its manifest.
            del out
            out = None
            os.replace(partial, path)
            SatManifest(
                dtype=dtype.str,
                shape=shape,
                num_disks=int(num_disks),
                tile_rows=rows,
                tile_starts=tile_starts,
                tile_digests=tile_digests,
                file_bytes=os.path.getsize(path),
                params={"scheme": scheme_name, "dims": list(dims)},
            ).write(path)
            _remove_quietly(journal_file, carry_file)
        except BaseException:
            if out is not None:
                del out
            if owns_temp:
                # Nobody holds this path: remove every artifact the
                # failed build created (the mkstemp placeholder, the
                # partial, and the build sidecars).
                _remove_quietly(path, partial, journal_file, carry_file)
            raise
        # Reopen read-only: the writable mapping is released and every
        # consumer sees the same immutable view an open_mmap would.
        # Header-level verification only — the manifest was written
        # from the in-memory digests one rename ago.
        return cls.open_mmap(path, verify="header")

    @classmethod
    def _checkpoint_tile(
        cls,
        journal_file: str,
        carry_file: str,
        carry: np.ndarray,
        dtype: np.dtype,
        shape: Tuple[int, ...],
        scheme_name: str,
        tile_rows: int,
        next_start: int,
        tile_starts: List[int],
        tile_digests: List[str],
    ) -> None:
        """Durably record one completed tile (carry first, then journal).

        Both files are replaced atomically; the journal's carry digest
        binds the pair, so a crash between the two renames leaves a
        journal that simply fails validation and resumes one tile
        earlier.
        """
        tmp = f"{carry_file}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                np.save(handle, carry)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, carry_file)
        except BaseException:
            _remove_quietly(tmp)
            raise
        atomic_write_json(
            journal_file,
            {
                "schema": MANIFEST_SCHEMA_VERSION,
                "kind": SAT_JOURNAL_KIND,
                "dtype": dtype.str,
                "shape": list(shape),
                "scheme": scheme_name,
                "tile_rows": int(tile_rows),
                "next_start": int(next_start),
                "tile_starts": list(tile_starts),
                "tile_digests": list(tile_digests),
                "carry_sha256": sha256_hex(carry.data),
            },
        )

    @classmethod
    def open_mmap(
        cls,
        path: Union[str, os.PathLike],
        verify: Optional[str] = None,
    ) -> "SummedAreaTable":
        """Reopen a spilled table zero-copy (read-only memory map).

        The ``.npy`` header carries shape and dtype; the disk count (the
        last axis) and grid extents are recovered from the padded shape,
        so the path is a complete handle.

        The table is checked against its sidecar manifest *before* it is
        mapped — ``verify`` overrides ``REPRO_VERIFY`` (default
        ``header``; see :func:`repro.core.integrity.verify_sat`) — and a
        corrupt artifact raises
        :class:`~repro.core.exceptions.IntegrityError` rather than ever
        being loaded.  So does a spill of the retired disk-first layout
        (schema-1 manifest) and a table with no manifest at all, whose
        layout the ``.npy`` header cannot tell; only ``verify="off"``
        opens those unchecked.
        """
        path = os.fspath(path)
        maybe_io_fault("sat.read", path)
        verify_sat(path, verify)
        array = np.load(path, mmap_mode="r")  # qa503: allow — this IS
        # the integrity-verified open; verify_sat ran one line up.
        if array.ndim < 2:
            raise AllocationError(
                f"{path} does not hold a stacked SAT "
                f"(ndim {array.ndim} < 2)"
            )
        num_disks = int(array.shape[-1])
        dims = tuple(int(d) - 1 for d in array.shape[:-1])
        if any(d <= 0 for d in dims):
            raise AllocationError(
                f"{path} has non-padded spatial extents {array.shape[:-1]}"
            )
        return cls(array, Grid(dims), num_disks, path=path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def dims(self) -> Tuple[int, ...]:
        """Grid extents (without padding)."""
        return self.grid.dims

    @property
    def ndim(self) -> int:
        return self.grid.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def is_mmap(self) -> bool:
        """Whether the table is backed by a memory-mapped file."""
        return self.path is not None

    def nbytes(self) -> int:
        """Size of the table, in bytes (file size for mmap tables)."""
        return int(self.array.nbytes)

    def resident_nbytes(self) -> int:
        """Bytes guaranteed resident in RAM (0 for mmap-backed tables)."""
        return 0 if self.is_mmap else int(self.array.nbytes)

    # ------------------------------------------------------------------
    # Gathers
    # ------------------------------------------------------------------

    def corner_counts(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Per-query per-disk counts ``(N, M)`` by 2^k-corner gather.

        ``lo``/``hi`` are clipped half-open bounds of shape ``(N, k)``
        (see ``ResponseTimeEngine``).  One fancy-index gather per corner
        reads each query's contiguous ``M``-vector, for in-RAM and
        memory-mapped tables alike.
        """
        num_queries, ndim = lo.shape
        if ndim != self.ndim:
            raise QueryError(
                f"{ndim}-d bounds do not match {self.ndim}-d SAT"
            )
        counts = np.zeros(
            (num_queries, self.num_disks), dtype=np.int64
        )
        for corner in range(1 << ndim):
            index = []
            parity = 0
            for axis in range(ndim):
                if (corner >> axis) & 1:
                    index.append(lo[:, axis])
                    parity ^= 1
                else:
                    index.append(hi[:, axis])
            term = self.array[tuple(index)]  # shape (N, M)
            if parity:
                counts -= term
            else:
                counts += term
        return counts

    def close(self) -> None:
        """Release a memory-mapped table's file mapping (idempotent).

        The numpy views become invalid after this; in-RAM tables are
        unaffected.  The backing file is *not* deleted — the path handle
        stays reopenable.
        """
        if self.is_mmap and self.array is not None:
            mmap_obj = getattr(self.array, "_mmap", None)
            self.array = None  # type: ignore[assignment]
            if mmap_obj is not None:
                mmap_obj.close()

