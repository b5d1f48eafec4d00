"""``cnative``: the hot kernels as a tiny C extension, built on demand.

The C source below is compiled once per machine (``cc -O3`` into a
shared library cached under ``REPRO_NATIVE_CACHE`` or the system temp
dir, keyed by a hash of the source) and loaded through ``ctypes`` — no
build step, no new dependency beyond a C compiler.  When no compiler is
present the backend reports itself unavailable and selection fails
loudly; nothing silently falls back.

Why it wins: the numpy batch path runs one fancy-index gather per SAT
corner and materializes an ``(N, M)`` intermediate per corner plus the
count matrix.  The C kernels read the SAT's disk-last layout
(:class:`repro.core.sat.SummedAreaTable` stores ``(d_1+1, ..., d_k+1,
M)``), where one corner's ``M`` per-disk counts are a single contiguous
vector — for the paper-scale ``M = 16`` exactly one cache line — and
fuse the 2^k-corner accumulation with the max-over-disks reduction, so a
query is answered in ``2^k`` cache-line reads with no intermediates at
all.  In-RAM and memory-mapped tables are served by the same call: a
data pointer plus element strides, worked out once per table
(:attr:`~repro.core.sat.SummedAreaTable.data_address`) and passed as
integers to functions whose ``argtypes`` are declared at load, so a
call builds no ``ctypes`` pointer objects.  A served batch is one
``wire_rt`` call: it reads the inclusive bounds straight from the
request body, checks and clips a block of rows at a time onto the
stack, answers each block with ``batch_rt`` and writes the answers
into the reply's body.

The tile kernel builds the table the queries read.  numpy fills a tile
in four passes over it (a one-hot ``np.equal``, then one ``cumsum``
per axis); the C sweep writes each ``M``-vector once, from its
indicator, the running per-disk count along the innermost axis, and
already-written neighbours of this row and the previous one (the carry
plane for a tile's first row).  ``build_chunked`` hands it the mapped
slab of the ``.npy`` file itself, so a tile is never staged in an
anonymous buffer and copied.

Bit-identity with the numpy reference is certified by QA423 and the
backend property tests; the speedup floor is gated by
``scripts/check_bench_gate.py`` (BENCH_native.json).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends.base import (
    WIRE_BOUNDS_MESSAGE,
    KernelBackend,
    check_wire_arrays,
)
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.exceptions import IntegrityError, QueryError
from repro.core.integrity import (
    library_digest_path,
    verify_library,
    write_library_digest,
)
from repro.core.sat import SummedAreaTable
from repro.faults.io import maybe_io_fault
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry

_LOG = get_logger("repro.core.backends.native")

__all__ = ["CNativeBackend"]

#: Hard cap on query/grid arity the C kernels accept (2^k corner tables
#: are stack-allocated).
_MAX_NDIM = 16

#: Disk-id block dtypes the tile kernel reads in place (C suffix → C
#: type): ``uint8`` allocation tables and ``int64`` scheme blocks.  Any
#: other block is converted to ``int64`` first.
_BLOCK_TYPES = {"u8": "uint8_t", "i64": "int64_t"}

#: SAT dtypes with a compiled variant, and their C suffix.
_SAT_SUFFIXES = {np.dtype(np.int32): "i32", np.dtype(np.int64): "i64"}

_KERNEL_TEMPLATE = r"""
#include <stdint.h>

/* Batched rectangle queries against a disk-last SAT
   (spatial-major, disk id fastest).  strides are in ELEMENTS and
   already include the factor M, so satT[off + m] is disk m's count at
   the spatial corner `off`.  The M-long accumulator lives in
   caller-provided scratch (see aligned_acc), so there is no cap on M. */

void batch_rt_{suffix}(
    const {ctype} *satT, const int64_t *strides,
    int32_t num_disks, int32_t ndim,
    const int64_t *lo, const int64_t *hi, int64_t num_queries,
    int64_t *scratch, int64_t *out)
{{
    int64_t *acc = aligned_acc(scratch);
    int32_t ncorners = 1 << ndim;
    int64_t offs[1 << {max_ndim}];
    int32_t signs[1 << {max_ndim}];
    for (int64_t q = 0; q < num_queries; q++) {{
        const int64_t *qlo = lo + (size_t)q * ndim;
        const int64_t *qhi = hi + (size_t)q * ndim;
        for (int32_t c = 0; c < ncorners; c++) {{
            int64_t off = 0;
            int32_t parity = 0;
            for (int32_t a = 0; a < ndim; a++) {{
                if ((c >> a) & 1) {{
                    off += qlo[a] * strides[a];
                    parity ^= 1;
                }} else {{
                    off += qhi[a] * strides[a];
                }}
            }}
            offs[c] = off;
            signs[c] = parity ? -1 : 1;
        }}
        for (int32_t m = 0; m < num_disks; m++) acc[m] = 0;
        for (int32_t c = 0; c < ncorners; c++) {{
            const {ctype} *v = satT + offs[c];
            if (signs[c] < 0) {{
                for (int32_t m = 0; m < num_disks; m++)
                    acc[m] -= (int64_t)v[m];
            }} else {{
                for (int32_t m = 0; m < num_disks; m++)
                    acc[m] += (int64_t)v[m];
            }}
        }}
        int64_t best = acc[0];
        for (int32_t m = 1; m < num_disks; m++)
            if (acc[m] > best) best = acc[m];
        out[q] = best;
    }}
}}

/* A served batch straight from the request body: `bounds` holds the
   (N, k) inclusive lower rows, then the (N, k) inclusive upper rows.
   Each row is checked (0 <= lower <= upper) and clipped to the grid
   exactly as QueryBatch.clip does -- lo = min(lower, d), hi =
   max(min(upper, d - 1) + 1, lo), which cannot wrap at INT64_MAX --
   into a block of half-open bounds on the stack, and each block is
   answered by batch_rt.  The grid extents follow the ndim strides.
   Returns 0, or -1 at the first invalid row (`out` is then partly
   written). */

#define WIRE_BLOCK 32

int32_t wire_rt_{suffix}(
    const {ctype} *satT, const int64_t *strides,
    int32_t num_disks, int32_t ndim,
    const int64_t *bounds, int64_t num_queries,
    int64_t *scratch, int64_t *out)
{{
    const int64_t *dims = strides + ndim;
    const int64_t *upper = bounds + (size_t)num_queries * ndim;
    int64_t lo[WIRE_BLOCK * {max_ndim}];
    int64_t hi[WIRE_BLOCK * {max_ndim}];
    for (int64_t start = 0; start < num_queries; start += WIRE_BLOCK) {{
        int64_t count = num_queries - start;
        if (count > WIRE_BLOCK) count = WIRE_BLOCK;
        const int64_t *l = bounds + (size_t)start * ndim;
        const int64_t *u = upper + (size_t)start * ndim;
        for (int64_t i = 0; i < count * ndim; i += ndim) {{
            for (int32_t a = 0; a < ndim; a++) {{
                int64_t low = l[i + a], up = u[i + a], d = dims[a];
                if (low < 0 || low > up) return -1;
                int64_t qlo = low < d ? low : d;
                int64_t qhi = (up < d - 1 ? up : d - 1) + 1;
                lo[i + a] = qlo;
                hi[i + a] = qhi > qlo ? qhi : qlo;
            }}
        }}
        batch_rt_{suffix}(
            satT, strides, num_disks, ndim, lo, hi, count, scratch,
            out + start);
    }}
    return 0;
}}

void batch_counts_{suffix}(
    const {ctype} *satT, const int64_t *strides,
    int32_t num_disks, int32_t ndim,
    const int64_t *lo, const int64_t *hi, int64_t num_queries,
    int64_t *out)
{{
    int32_t ncorners = 1 << ndim;
    for (int64_t q = 0; q < num_queries; q++) {{
        const int64_t *qlo = lo + (size_t)q * ndim;
        const int64_t *qhi = hi + (size_t)q * ndim;
        int64_t *row = out + (size_t)q * num_disks;
        for (int32_t m = 0; m < num_disks; m++) row[m] = 0;
        for (int32_t c = 0; c < ncorners; c++) {{
            int64_t off = 0;
            int32_t parity = 0;
            for (int32_t a = 0; a < ndim; a++) {{
                if ((c >> a) & 1) {{
                    off += qlo[a] * strides[a];
                    parity ^= 1;
                }} else {{
                    off += qhi[a] * strides[a];
                }}
            }}
            const {ctype} *v = satT + off;
            if (parity) {{
                for (int32_t m = 0; m < num_disks; m++)
                    row[m] -= (int64_t)v[m];
            }} else {{
                for (int32_t m = 0; m < num_disks; m++)
                    row[m] += (int64_t)v[m];
            }}
        }}
    }}
}}

/* Sliding shape sweep: RT at every placement origin, fused max over
   disks, from the same disk-last SAT.  Corner offsets relative to the
   origin are constant for a fixed shape, so each origin costs 2^k
   contiguous M-vector reads. */

void window_rt_{suffix}(
    const {ctype} *satT, const int64_t *strides,
    int32_t num_disks, int32_t ndim,
    const int64_t *shape, const int64_t *out_dims,
    int64_t *scratch, int64_t *out)
{{
    int64_t *acc = aligned_acc(scratch);
    int32_t ncorners = 1 << ndim;
    int64_t deltas[1 << {max_ndim}];
    int32_t signs[1 << {max_ndim}];
    int64_t coords[{max_ndim}];
    int64_t total = 1;
    for (int32_t a = 0; a < ndim; a++) {{
        coords[a] = 0;
        total *= out_dims[a];
    }}
    for (int32_t c = 0; c < ncorners; c++) {{
        int64_t delta = 0;
        int32_t parity = 0;
        for (int32_t a = 0; a < ndim; a++) {{
            if ((c >> a) & 1) parity ^= 1;     /* low corner: origin */
            else delta += shape[a] * strides[a]; /* high: origin + s */
        }}
        deltas[c] = delta;
        signs[c] = parity ? -1 : 1;
    }}
    for (int64_t i = 0; i < total; i++) {{
        int64_t base = 0;
        for (int32_t a = 0; a < ndim; a++)
            base += coords[a] * strides[a];
        for (int32_t m = 0; m < num_disks; m++) acc[m] = 0;
        for (int32_t c = 0; c < ncorners; c++) {{
            const {ctype} *v = satT + base + deltas[c];
            if (signs[c] < 0) {{
                for (int32_t m = 0; m < num_disks; m++)
                    acc[m] -= (int64_t)v[m];
            }} else {{
                for (int32_t m = 0; m < num_disks; m++)
                    acc[m] += (int64_t)v[m];
            }}
        }}
        int64_t best = acc[0];
        for (int32_t m = 1; m < num_disks; m++)
            if (acc[m] > best) best = acc[m];
        out[i] = best;
        for (int32_t a = ndim - 1; a >= 0; a--) {{
            if (++coords[a] < out_dims[a]) break;
            coords[a] = 0;
        }}
    }}
}}
"""

_TILE_TEMPLATE = r"""
/* One SAT tile in one sweep, written straight into `out` (rows, d_2+1,
   ..., d_k+1, M), every element including the zero pad planes.  With
   `prev` the row before (the carry plane for row 0) and `acc` the
   running per-disk count along the innermost axis, each element is

       out[r, j] = prev[j] + acc + sum over non-empty subsets S of the
                   outer trailing axes of (-1)^(|S|+1) *
                   (out[r, j - e_S] - prev[j - e_S]),

   i.e. inclusion-exclusion over already-written neighbours.  Sums run
   in the unsigned twin of the SAT dtype: intermediate terms may wrap,
   the result is exact because every true entry fits the SAT dtype.
   dims holds the UNPADDED block extents (rows, d_2, ..., d_k). */

void fill_tile_{suffix}_{bsuffix}(
    {utype} *out, const {btype} *block, const {utype} *carry,
    const int64_t *dims, int32_t ndim, int32_t num_disks,
    int64_t *scratch)
{{
    {utype} *acc = ({utype} *)aligned_acc(scratch);
    const int64_t M = num_disks;
    const int32_t t = ndim - 1;      /* trailing (non-tile) axes */
    int64_t pstride[{max_ndim}];     /* element strides in one out row */
    int64_t bstride[{max_ndim}];     /* element strides in one block row */
    int64_t coords[{max_ndim}];
    int64_t noff[1 << ({max_ndim} - 2)];
    int32_t nodd[1 << ({max_ndim} - 2)];
    int64_t plane = M, brow = 1;
    for (int32_t a = t; a >= 1; a--) {{
        pstride[a] = plane;
        plane *= dims[a] + 1;
        bstride[a] = brow;
        brow *= dims[a];
    }}
    if (t == 0) {{                   /* 1-d grid: a row is one M-vector */
        for (int64_t r = 0; r < dims[0]; r++) {{
            {utype} *row = out + r * M;
            const {utype} *prev = r ? row - M : carry;
            for (int64_t m = 0; m < M; m++) row[m] = prev[m];
            {btype} d = block[r];
            if ((uint64_t)d < (uint64_t)M) row[d] += 1;
        }}
        return;
    }}
    const int32_t outer = t - 1;     /* trailing axes 1 .. t-1 */
    const int32_t nsub = 1 << outer;
    for (int32_t s = 1; s < nsub; s++) {{
        int64_t off = 0;
        int32_t odd = 0;
        for (int32_t a = 0; a < outer; a++)
            if ((s >> a) & 1) {{
                off += pstride[a + 1];
                odd ^= 1;
            }}
        noff[s] = off;
        nodd[s] = odd;
    }}
    const int64_t inner = dims[t];
    const int64_t line = (inner + 1) * M;
    const int64_t nlines = plane / line;
    for (int64_t r = 0; r < dims[0]; r++) {{
        {utype} *cur = out + r * plane;
        const {utype} *prev = r ? cur - plane : carry;
        const {btype} *brow_ptr = block + r * brow;
        for (int32_t a = 1; a < t; a++) coords[a] = 0;
        for (int64_t l = 0; l < nlines; l++) {{
            {utype} *o = cur + l * line;
            int32_t pad = 0;
            int64_t boff = 0;
            for (int32_t a = 1; a < t; a++) {{
                if (coords[a] == 0) pad = 1;
                else boff += (coords[a] - 1) * bstride[a];
            }}
            if (pad) {{
                for (int64_t i = 0; i < line; i++) o[i] = 0;
            }} else {{
                const {utype} *p = prev + l * line;
                const {btype} *b = brow_ptr + boff;
                for (int64_t m = 0; m < M; m++) {{
                    o[m] = 0;
                    acc[m] = 0;
                }}
                for (int64_t x = 1; x <= inner; x++) {{
                    {btype} d = b[x - 1];
                    if ((uint64_t)d < (uint64_t)M) acc[d] += 1;
                    {utype} *e = o + x * M;
                    const {utype} *q = p + x * M;
                    for (int64_t m = 0; m < M; m++) e[m] = q[m] + acc[m];
                    for (int32_t s = 1; s < nsub; s++) {{
                        const {utype} *en = e - noff[s];
                        const {utype} *qn = q - noff[s];
                        if (nodd[s]) {{
                            for (int64_t m = 0; m < M; m++)
                                e[m] += en[m] - qn[m];
                        }} else {{
                            for (int64_t m = 0; m < M; m++)
                                e[m] -= en[m] - qn[m];
                        }}
                    }}
                }}
            }}
            for (int32_t a = t - 1; a >= 1; a--) {{
                if (++coords[a] <= dims[a]) break;
                coords[a] = 0;
            }}
        }}
    }}
}}
"""

_SCRATCH_HELPER = r"""
#include <stddef.h>
#include <stdint.h>

/* The M-long accumulator inside caller scratch of num_disks + 8
   entries, moved up to a 64-byte boundary: numpy only guarantees
   16-byte alignment, and a vector access that straddles a 4 KiB page
   boundary runs several times slower than one that does not. */
static int64_t *aligned_acc(int64_t *scratch)
{
    return (int64_t *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
}
"""


def _kernel_source() -> str:
    parts = [_SCRATCH_HELPER]
    for suffix, ctype in (("i32", "int32_t"), ("i64", "int64_t")):
        parts.append(
            _KERNEL_TEMPLATE.format(
                suffix=suffix,
                ctype=ctype,
                max_ndim=_MAX_NDIM,
            )
        )
        for bsuffix, btype in _BLOCK_TYPES.items():
            parts.append(
                _TILE_TEMPLATE.format(
                    suffix=suffix,
                    utype="u" + ctype,
                    bsuffix=bsuffix,
                    btype=btype,
                    max_ndim=_MAX_NDIM,
                )
            )
    return "\n".join(parts)


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_NATIVE_CACHE")
    if configured:
        return configured
    return os.path.join(
        tempfile.gettempdir(), f"repro-native-{os.getuid()}"
    )


def _remove_quietly(*paths: str) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


def _compile_library(source: str) -> str:
    """Compile the kernel source into a cached shared library; return path.

    A cache hit is verified against its digest sidecar first
    (:func:`repro.core.integrity.verify_library`, depth from
    ``REPRO_VERIFY``); a corrupt cached library is evicted and
    recompiled rather than ``CDLL``-loaded.  Raises
    ``subprocess.CalledProcessError``/``OSError`` on compile failure —
    the backend turns those into an unavailability reason — and a
    failed compile leaves nothing behind in the cache directory.
    """
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    directory = _cache_dir()
    os.makedirs(directory, exist_ok=True)
    lib_path = os.path.join(directory, f"reprokern-{digest}.so")
    maybe_io_fault("compile", lib_path)
    if os.path.exists(lib_path):
        try:
            verify_library(lib_path)
            return lib_path
        except IntegrityError as exc:
            _LOG.warning(
                "cached kernel library failed verification, "
                "recompiling: %s",
                exc,
            )
            global_registry().inc("integrity.so_rebuilds")
            _remove_quietly(lib_path, library_digest_path(lib_path))
    compiler = _find_compiler()
    if compiler is None:
        raise OSError("no C compiler (cc/gcc/clang) on PATH")
    src_path = os.path.join(directory, f"reprokern-{digest}.c")
    tmp_path = f"{lib_path}.{os.getpid()}.tmp"
    compiled = False
    try:
        with open(src_path, "w") as handle:
            handle.write(source)
        base_cmd = [compiler, "-O3", "-fPIC", "-shared", src_path,
                    "-o", tmp_path]
        try:
            subprocess.run(
                base_cmd[:1] + ["-march=native"] + base_cmd[1:],
                check=True,
                capture_output=True,
            )
        except subprocess.CalledProcessError:
            # Portable fallback: some toolchains reject -march=native.
            subprocess.run(base_cmd, check=True, capture_output=True)
        os.replace(tmp_path, lib_path)  # atomic: concurrent builds race
        compiled = True
    finally:
        if not compiled:
            # Both compiles failed (or the write itself did): leave no
            # orphaned source/temp artifacts in the shared cache dir.
            _remove_quietly(src_path, tmp_path)
    write_library_digest(lib_path)
    return lib_path


_VOID_P = ctypes.c_void_p
_I32 = ctypes.c_int32

#: Argument types of every exported kernel, by name prefix (the SAT
#: dtype suffix follows).  Every pointer is passed as an integer
#: address, so a call converts no ``ctypes`` pointer objects.
_KERNEL_ARGTYPES = {
    # sat, strides, num_disks, ndim, lo, hi, num_queries, scratch, out
    "batch_rt": (
        _VOID_P, _VOID_P, _I32, _I32, _VOID_P, _VOID_P, ctypes.c_int64,
        _VOID_P, _VOID_P,
    ),
    # sat, strides, num_disks, ndim, lo, hi, num_queries, out
    "batch_counts": (
        _VOID_P, _VOID_P, _I32, _I32, _VOID_P, _VOID_P, ctypes.c_int64,
        _VOID_P,
    ),
    # sat, strides, num_disks, ndim, bounds, num_queries, scratch, out
    "wire_rt": (
        _VOID_P, _VOID_P, _I32, _I32, _VOID_P, ctypes.c_int64, _VOID_P,
        _VOID_P,
    ),
    # sat, strides, num_disks, ndim, shape, out_dims, scratch, out
    "window_rt": (
        _VOID_P, _VOID_P, _I32, _I32, _VOID_P, _VOID_P, _VOID_P, _VOID_P,
    ),
}

#: Kernels that return a status; the rest return nothing.
_KERNEL_RESTYPES = {"wire_rt": _I32}

#: ``fill_tile_*``: out, block, carry, dims, ndim, num_disks, scratch.
_FILL_TILE_ARGTYPES = (
    _VOID_P, _VOID_P, _VOID_P, _VOID_P, _I32, _I32, _VOID_P,
)


def _c_bounds(bounds: np.ndarray) -> np.ndarray:
    """``bounds`` as the aligned, C-contiguous ``int64`` the kernels read.

    Passed through when it already is (a read-only view included);
    copied otherwise.  ``np.ascontiguousarray`` alone would pass an
    unaligned view through.
    """
    flags = bounds.flags
    if bounds.dtype == np.int64 and flags.c_contiguous and flags.aligned:
        return bounds
    return np.array(bounds, dtype=np.int64, order="C")


class CNativeBackend(KernelBackend):
    """Fused C kernels over the disk-last SAT (see module docs)."""

    name = "cnative"

    def __init__(self) -> None:
        self._lib: Optional[ctypes.CDLL] = None
        self._load_error: Optional[str] = None
        self._reference = NumpyBackend()
        #: (kernel name, SAT dtype) -> the prepared ctypes function;
        #: the tile fills are named ``fill_tile_<block suffix>``.
        self._kernels: Dict[Tuple[str, np.dtype], Any] = {}

    # -- loading -------------------------------------------------------

    def _library(self) -> Optional[ctypes.CDLL]:
        if self._lib is None and self._load_error is None:
            try:
                lib_path = _compile_library(_kernel_source())
                # _compile_library digest-verifies cache hits and
                # sidecars fresh compiles; this is the verified load.
                library = ctypes.CDLL(lib_path)  # qa503: allow — digest-verified by _compile_library
                for dtype, suffix in _SAT_SUFFIXES.items():
                    for name, argtypes in _KERNEL_ARGTYPES.items():
                        kernel = getattr(library, f"{name}_{suffix}")
                        kernel.argtypes = argtypes
                        kernel.restype = _KERNEL_RESTYPES.get(name)
                        self._kernels[(name, dtype)] = kernel
                    for bsuffix in _BLOCK_TYPES:
                        kernel = getattr(
                            library, f"fill_tile_{suffix}_{bsuffix}"
                        )
                        kernel.argtypes = _FILL_TILE_ARGTYPES
                        kernel.restype = None
                        self._kernels[(f"fill_tile_{bsuffix}", dtype)] = (
                            kernel
                        )
                self._lib = library
            except Exception as exc:
                self._kernels.clear()
                detail = ""
                stderr = getattr(exc, "stderr", None)
                if stderr:
                    detail = f": {stderr.decode(errors='replace')[:200]}"
                self._load_error = (
                    f"C kernel build failed ({type(exc).__name__}: "
                    f"{exc}{detail})"
                )
                # Every kernel call now takes the numpy reference path;
                # counted so chaos runs can assert the degraded mode.
                global_registry().inc("backend.reference_fallbacks")
                _LOG.warning(
                    "cnative unavailable, serving from the numpy "
                    "reference: %s",
                    self._load_error,
                )
        return self._lib

    def unavailable_reason(self) -> Optional[str]:
        self._library()
        return self._load_error

    # -- shared plumbing -----------------------------------------------

    def _kernel(self, name: str, sat: SummedAreaTable):
        """The prepared ``name`` kernel for ``sat``, or None.

        None when the library is unavailable, the table has no kernel
        call arguments (see :class:`~repro.core.sat.SummedAreaTable`),
        exceeds the kernels' corner-table bound (``ndim``) or has a
        dtype without a compiled variant — the caller then delegates to
        the numpy reference.
        """
        if (
            sat.data_address is None
            or sat.ndim > _MAX_NDIM
            or self._library() is None
        ):
            return None
        return self._kernels.get((name, sat.array.dtype))

    # -- batched rectangle queries -------------------------------------

    def batch_response_times(
        self, sat: SummedAreaTable, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        kernel = self._kernel("batch_rt", sat)
        if kernel is None:
            return self._reference.batch_response_times(sat, lo, hi)
        num_queries = lo.shape[0]
        out = np.empty(num_queries, dtype=np.int64)
        if num_queries == 0:
            return out
        lo, hi = _c_bounds(lo), _c_bounds(hi)
        scratch = np.empty(sat.num_disks + 8, dtype=np.int64)
        kernel(
            sat.data_address,
            sat.strides_address,
            sat.num_disks,
            sat.ndim,
            lo.ctypes.data,
            hi.ctypes.data,
            num_queries,
            scratch.ctypes.data,
            out.ctypes.data,
        )
        return out

    def wire_response_times(
        self, sat: SummedAreaTable, bounds: np.ndarray, out: np.ndarray
    ) -> None:
        kernel = self._kernel("wire_rt", sat)
        if kernel is None:
            self._reference.wire_response_times(sat, bounds, out)
            return
        check_wire_arrays(sat, bounds, out)
        num_queries = out.shape[0]
        if num_queries == 0:
            return
        bounds = _c_bounds(bounds)
        scratch = np.empty(sat.num_disks + 8, dtype=np.int64)
        if kernel(
            sat.data_address,
            sat.strides_address,
            sat.num_disks,
            sat.ndim,
            bounds.ctypes.data,
            num_queries,
            scratch.ctypes.data,
            out.ctypes.data,
        ):
            raise QueryError(WIRE_BOUNDS_MESSAGE)

    def batch_disk_counts(
        self, sat: SummedAreaTable, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        kernel = self._kernel("batch_counts", sat)
        if kernel is None:
            return self._reference.batch_disk_counts(sat, lo, hi)
        num_queries = lo.shape[0]
        out = np.empty((num_queries, sat.num_disks), dtype=np.int64)
        if num_queries == 0:
            return out
        lo, hi = _c_bounds(lo), _c_bounds(hi)
        kernel(
            sat.data_address,
            sat.strides_address,
            sat.num_disks,
            sat.ndim,
            lo.ctypes.data,
            hi.ctypes.data,
            num_queries,
            out.ctypes.data,
        )
        return out

    # -- sliding-window shape sweep ------------------------------------

    def window_response_times(
        self, sat: SummedAreaTable, shape: Sequence[int]
    ) -> np.ndarray:
        kernel = self._kernel("window_rt", sat)
        if kernel is None:
            return self._reference.window_response_times(sat, shape)
        shape = tuple(int(s) for s in shape)
        out_dims = np.array(
            [d - s + 1 for s, d in zip(shape, sat.dims)],
            dtype=np.int64,
        )
        out = np.empty(int(out_dims.prod()), dtype=np.int64)
        shape_arr = np.array(shape, dtype=np.int64)
        scratch = np.empty(sat.num_disks + 8, dtype=np.int64)
        kernel(
            sat.data_address,
            sat.strides_address,
            sat.num_disks,
            sat.ndim,
            shape_arr.ctypes.data,
            out_dims.ctypes.data,
            scratch.ctypes.data,
            out.ctypes.data,
        )
        return out.reshape(tuple(int(d) for d in out_dims))

    # -- SAT tile fill -------------------------------------------------

    def fill_tile(
        self,
        out: np.ndarray,
        block: np.ndarray,
        num_disks: int,
        carry: np.ndarray,
    ) -> None:
        self._library()
        bsuffix = "u8" if block.dtype == np.uint8 else "i64"
        kernel = self._kernels.get((f"fill_tile_{bsuffix}", out.dtype))
        shape = block.shape[:1] + tuple(d + 1 for d in block.shape[1:])
        if (
            kernel is None
            or block.ndim > _MAX_NDIM
            or out.size == 0
            or not out.flags.c_contiguous
            or out.shape != shape + (num_disks,)
            or carry.shape != out.shape[1:]
            or carry.dtype != out.dtype
        ):
            # Past the corner-table bound, or not a layout the sweep
            # can write in place: the reference fills (or rejects) it.
            self._reference.fill_tile(out, block, num_disks, carry)
            return
        block = np.ascontiguousarray(
            block, dtype=np.uint8 if bsuffix == "u8" else np.int64
        )
        carry = np.ascontiguousarray(carry)
        dims = np.array(block.shape, dtype=np.int64)
        scratch = np.empty(num_disks + 8, dtype=np.int64)
        kernel(
            out.ctypes.data,
            block.ctypes.data,
            carry.ctypes.data,
            dims.ctypes.data,
            block.ndim,
            num_disks,
            scratch.ctypes.data,
        )
