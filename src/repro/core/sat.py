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

import os
import tempfile
import threading
from typing import (
    TYPE_CHECKING,
    Dict,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import AllocationError, IntegrityError, QueryError
from repro.core.grid import Grid
from repro.core.integrity import (
    SatManifest,
    manifest_path,
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
# Crash-safe chunked-build staging
# ----------------------------------------------------------------------
#
# A chunked build never writes the final path directly.  It stages two
# files: ``<path>.partial`` and that partial's own ``SatManifest``
# (``manifest_path(partial)``), rewritten with an atomic rename after
# every flushed tile, so it never names a tile the disk does not hold.
# The finished pair is published with two renames.  A SIGKILL at any
# moment therefore leaves either (a) nothing at the final path plus a
# resumable partial/manifest pair, or (b) the finished table — never a
# torn file under the real name.


def build_partial_path(path: Union[str, os.PathLike]) -> str:
    """Where a chunked build stages its output before the final rename."""
    return os.fspath(path) + ".partial"


class _TileDigest(threading.Thread):
    """One filled tile's sha256, computed on a helper thread.

    hashlib releases the GIL over large buffers, so the digest runs
    while the main thread fills the next tile.  The thread starts on
    construction; :meth:`digest` joins it and re-raises what it raised.
    """

    def __init__(self, row: int, tile: memoryview) -> None:
        super().__init__(name=f"repro-sat-digest@{row}")
        self.row = row
        self._tile: Optional[memoryview] = tile
        self._digest = ""
        self._error: Optional[Exception] = None
        self.start()

    def run(self) -> None:
        try:
            self._digest = sha256_hex(self._tile)
        except Exception as exc:  # re-raised by digest()
            self._error = exc
        finally:
            self._tile = None

    def digest(self) -> str:
        self.join()
        if self._error is not None:
            raise self._error
        return self._digest


class _TileCommits:
    """Commits a chunked build's flushed tiles in order, hashed off-thread.

    :meth:`add` takes a filled and flushed tile: it commits the previous
    tile, whose digest ran while this one was filled, then starts this
    tile's digest.  A commit appends the digest, rewrites the partial's
    manifest and passes the ``sat.write`` fault point, so no digest is
    in flight at a fault.  Leaving the ``with`` block, by any exit,
    waits for a pending digest, so the caller never releases the
    mapping or unlinks a file under a helper still reading it.
    """

    def __init__(self, partial: str, manifest: SatManifest) -> None:
        self._partial = partial
        self._manifest = manifest
        self._pending: Optional[_TileDigest] = None

    def __enter__(self) -> "_TileCommits":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._pending is not None:
            self._pending.join()

    def add(self, row: int, tile: memoryview) -> None:
        self.finish()
        self._pending = _TileDigest(row, tile)

    def finish(self) -> None:
        """Commit the pending tile, if any."""
        if self._pending is None:
            return
        digest = self._pending.digest()
        row, self._pending = self._pending.row, None
        self._manifest.tile_starts.append(row)
        self._manifest.tile_digests.append(digest)
        self._manifest.write(self._partial)
        # Injection point: the fault strikes *between* tiles — the
        # just-committed tile is durable, so an ``exit``-mode plan is
        # exactly "SIGKILL at a tile boundary" and a later run must
        # resume from here.
        maybe_io_fault("sat.write", f"tile@{row}")


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
    data_address / strides_address:
        What a compiled kernel call needs, worked out once: the table's
        data pointer and the address of an ``int64`` array of the
        spatial axes' strides in elements (each already includes the
        factor ``M``), followed by the grid's ``k`` extents, as
        integers.  ``None`` when the disk axis is not contiguous (a
        hand-made view) or the table is closed; callers then take the
        numpy reference path.
    """

    __slots__ = (
        "array",
        "grid",
        "num_disks",
        "path",
        "data_address",
        "strides_address",
        "_kernel_args",
    )

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
        self.data_address: Optional[int] = None
        self.strides_address: Optional[int] = None
        # Owns the memory strides_address points at.
        self._kernel_args: Optional[np.ndarray] = None
        itemsize = array.itemsize
        if array.strides[-1] == itemsize and all(
            stride % itemsize == 0 for stride in array.strides
        ):
            args = np.array(
                [stride // itemsize for stride in array.strides[:-1]]
                + list(grid.dims),
                dtype=np.int64,
            )
            args.setflags(write=False)
            self._kernel_args = args
            self.strides_address = int(args.ctypes.data)
            self.data_address = int(array.ctypes.data)

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
    def _open_partial(
        cls,
        scheme: "DeclusteringScheme",
        grid: Grid,
        num_disks: int,
        partial: str,
        params: Dict[str, object],
    ) -> Tuple[Optional[np.memmap], Optional[SatManifest]]:
        """An interrupted build's partial, mapped writable, and its manifest.

        The partial's own manifest, loaded through
        :meth:`SatManifest.load`, must name the requested dtype, shape,
        disk count and ``params`` (scheme and extents), and whole tiles
        from row 0.  The committed slabs are re-hashed and the longest
        prefix whose digests match is kept; the last kept tile is then
        recomputed from ``scheme.disk_array_block`` into a scratch
        buffer, carried by the row before it, and must hash the same —
        which ties the partial to this allocation, not merely to a
        scheme name.  The returned manifest lists the kept tiles only.
        Anything less and resuming could not be byte-identical: the
        staging pair is removed and ``(None, None)`` returned, so the
        build starts fresh.
        """
        from repro.core.backends import active_backend

        dtype = sat_dtype(grid.num_buckets)
        shape = _padded_shape(num_disks, grid.dims)
        leading = grid.dims[0]

        def _discard(why: str) -> Tuple[None, None]:
            _LOG.warning(
                "discarding unusable partial build %s: %s", partial, why
            )
            _remove_quietly(partial, manifest_path(partial))
            return None, None

        try:
            manifest = SatManifest.load(partial)
        except FileNotFoundError:
            return None, None
        except IntegrityError as exc:
            return _discard(str(exc))
        rows, starts = manifest.tile_rows, manifest.tile_starts
        if not (
            manifest.dtype == dtype.str
            and manifest.shape == shape
            and manifest.num_disks == int(num_disks)
            and manifest.params == params
            and rows >= 1
            and starts == list(range(0, rows * len(starts), rows))
            and 0 < len(starts)
            and starts[-1] < leading
        ):
            return _discard("identity or tile bookkeeping mismatch")
        try:
            if os.path.getsize(partial) != manifest.file_bytes:
                raise ValueError(
                    f"not the {manifest.file_bytes} bytes its manifest "
                    f"records"
                )
            out = np.lib.format.open_memmap(
                partial, mode="r+"
            )  # qa503: allow — every kept tile is re-hashed against the
            # partial's manifest below, and the last one recomputed.
        except (OSError, ValueError) as exc:
            return _discard(f"unreadable ({exc!r})")
        kept = 0
        if out.dtype == dtype and out.shape == shape and not out[0].any():
            for start, digest in zip(starts, manifest.tile_digests):
                stop = min(start + rows, leading)
                if sha256_hex(out[start + 1 : stop + 1].data) != digest:
                    break
                kept += 1
        if kept:
            start = starts[kept - 1]
            stop = min(start + rows, leading)
            scratch = np.empty((stop - start,) + shape[1:], dtype=dtype)
            active_backend().fill_tile(
                scratch,
                scheme.disk_array_block(grid, num_disks, start, stop),
                num_disks,
                out[start],
            )
            if sha256_hex(scratch.data) != manifest.tile_digests[kept - 1]:
                kept = 0
        if not kept:
            del out
            return _discard("no committed tile this build reproduces")
        del manifest.tile_starts[kept:]
        del manifest.tile_digests[kept:]
        return out, manifest

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
        prefix sums, carried by the row before the tile, straight into
        the tile's slab of the mapped file (with disks last, a tile is
        one contiguous slab).  ``path``
        defaults to a fresh temp file (``REPRO_SAT_DIR`` overrides the
        directory); the caller owns the file's lifetime.

        Tiles are committed in a two-stage pipeline: while the kernel
        fills tile ``i+1``, a helper thread hashes tile ``i``'s slab in
        place; the main thread then flushes the mapping, commits tile
        ``i`` and passes the ``sat.write`` fault point, in that order::

            fill i+1 ‖ digest i  →  flush  →  commit i  →  fault point

        The build is **crash-safe and resumable**: it stages into
        ``<path>.partial`` and, after each tile is flushed, atomically
        rewrites that partial's own sidecar manifest (see
        :mod:`repro.core.integrity`) with the tiles committed so far;
        publishing renames the table and then its manifest into place.
        Killed at any point, a re-run with the same ``path`` picks up
        after the last committed tile it can re-verify (see
        :meth:`_open_partial`), so the resumed table is byte-identical
        to an uninterrupted build (the partial's tile size wins even if
        the byte budget changed).  ``resume=False`` ignores and removes
        any prior partial; without one the build starts fresh.
        :meth:`open_mmap` verifies the published table against that
        manifest.
        A build that *raises* cleans up after itself, once the digest
        in flight, if any, is done: temp-file builds remove everything
        they created; explicit-path builds keep the partial and its
        manifest for a later resume (``repro doctor`` reports and can
        garbage-collect them).  A filled tile whose commit had not come
        yet is refilled by that resume.
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
        staged = manifest_path(partial)
        dims = grid.dims
        dtype = sat_dtype(grid.num_buckets)
        shape = _padded_shape(num_disks, dims)
        params: Dict[str, object] = {
            "scheme": getattr(scheme, "name", "") or "",
            "dims": list(dims),
        }

        out, manifest = None, None
        if resume and not owns_temp:
            out, manifest = cls._open_partial(
                scheme, grid, num_disks, partial, params
            )
        elif not resume:
            _remove_quietly(partial, staged)
        rows = (
            manifest.tile_rows
            if manifest is not None
            else cls.tile_rows(grid, num_disks, byte_budget)
        )
        try:
            with trace(
                "sat.build_chunked",
                dims=list(dims),
                num_disks=int(num_disks),
                tile_rows=rows,
                resumed=manifest is not None,
            ):
                if manifest is not None:
                    first_start = manifest.tile_starts[-1] + rows
                    global_registry().inc("sat.build_resumes")
                    _LOG.info(
                        "resuming chunked SAT build of %s at row %d/%d",
                        path,
                        min(first_start, dims[0]),
                        dims[0],
                    )
                else:
                    first_start = 0
                    _remove_quietly(staged)
                    out = np.lib.format.open_memmap(
                        partial,
                        mode="w+",
                        dtype=dtype,
                        shape=shape,
                    )  # qa503: allow — creating the staged partial
                    # this build owns; nothing is being trusted.
                    manifest = SatManifest(
                        dtype=dtype.str,
                        shape=shape,
                        num_disks=int(num_disks),
                        tile_rows=rows,
                        tile_starts=[],
                        tile_digests=[],
                        file_bytes=os.path.getsize(partial),
                        params=params,
                    )

                backend = active_backend()
                with _TileCommits(partial, manifest) as commits:
                    for start in range(first_start, dims[0], rows):
                        stop = min(start + rows, dims[0])
                        # The tile is computed in place in its mapped
                        # slab, carried by the row before it (the zero
                        # plane for the first tile); whatever a killed
                        # run left in the slab is overwritten.
                        chunk = out[start + 1 : stop + 1]
                        backend.fill_tile(
                            chunk,
                            scheme.disk_array_block(
                                grid, num_disks, start, stop
                            ),
                            num_disks,
                            out[start],
                        )
                        # Tile data must be durable before the manifest
                        # may claim it: this flush covers the tile just
                        # filled and the one before it, whose commit
                        # comes next.
                        out.flush()
                        commits.add(start, chunk.data)
                        del chunk
                    commits.finish()
            # Release the writable mapping, then publish: the table
            # first, then the manifest that names all of its tiles.  A
            # crash between the renames leaves a valid table that is at
            # worst missing its manifest.
            del out
            out = None
            os.replace(partial, path)
            os.replace(staged, manifest_path(path))
        except BaseException:
            if out is not None:
                del out
            if owns_temp:
                # Nobody holds this path: remove every artifact the
                # failed build created (the mkstemp placeholder, the
                # partial, and the partial's manifest).
                _remove_quietly(path, partial, staged)
            raise
        # Reopen read-only: the writable mapping is released and every
        # consumer sees the same immutable view an open_mmap would.
        # Header-level verification only — the manifest was written
        # from the in-memory digests one rename ago.
        return cls.open_mmap(path, verify="header")

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
            self.data_address = None
            self.strides_address = None
            self._kernel_args = None
            if mmap_obj is not None:
                mmap_obj.close()

