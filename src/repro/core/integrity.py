"""Artifact integrity: checksummed manifests for the native data plane.

PR 7 made two kinds of on-disk artifact load-bearing: spilled
summed-area tables (``SummedAreaTable.build_chunked`` / ``open_mmap``)
and the compiled-kernel ``.so`` cache (``repro.core.backends.native``).
Both were trusted blindly — a truncated or torn file with a plausible
``.npy`` header would be memory-mapped and silently produce wrong
answers; a corrupt ``.so`` would be ``CDLL``-loaded and crash (or
worse).  This module is the trust boundary:

* every spilled SAT gets a JSON **sidecar manifest**
  (``<table>.npy.manifest.json``) recording dtype, shape, disk count,
  tile layout, and a sha256 digest per build tile — streamed during the
  chunked build, so hashing rides along with the tile writes at near
  zero extra cost.  While that build runs, the same manifest of its
  ``.partial`` (rewritten after every flushed tile) is the record a
  killed build resumes from;
* every cached ``.so`` gets a **digest sidecar**
  (``<lib>.so.sha256``) written at compile time;
* :func:`verify_sat` / :func:`verify_library` check an artifact against
  its sidecar and raise a typed
  :class:`~repro.core.exceptions.IntegrityError` on any mismatch —
  corruption is *never* silently loaded.

Verification depth is configured by ``REPRO_VERIFY``:

``off``
    trust the artifact (the pre-integrity behavior);
``header``
    the default — manifest present and consistent with the ``.npy``
    header and the file size.  Catches truncation, wrong dtype/shape,
    and swapped files for the cost of one small JSON read;
``full``
    re-hash every tile and compare against the manifest.  Catches any
    bit flip; costs one sequential read of the whole artifact.

A spilled SAT's *missing* sidecar is rejected at ``header`` and
``full``: the ``.npy`` header cannot say whether the table is stored
disk-last (schema 2) or in the retired disk-first layout, and a
misread table answers every query wrong.  A schema-1 manifest is
rejected the same way, naming the retired layout.  ``repro doctor``
reports both as stale and ``--gc`` removes them.  A cached ``.so``
without its digest sidecar is still tolerated at ``header`` (logged
and counted as ``integrity.unverified_opens``).

All checks are counted through :mod:`repro.obs` so degraded modes are
visible in ``--metrics-out`` exports and ``obs summary``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.exceptions import IntegrityError
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry

_LOG = get_logger("repro.core.integrity")

__all__ = [
    "DISK_FIRST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "SatManifest",
    "VERIFY_ENV",
    "VERIFY_LEVELS",
    "atomic_write_json",
    "file_sha256",
    "library_digest_path",
    "manifest_path",
    "read_library_digest",
    "sha256_hex",
    "verify_level",
    "verify_library",
    "verify_sat",
    "write_library_digest",
]

#: Environment variable selecting the verification depth.
VERIFY_ENV = "REPRO_VERIFY"

#: Accepted ``REPRO_VERIFY`` values, shallow to deep.
VERIFY_LEVELS = ("off", "header", "full")

#: Bumped when the manifest or table layout changes incompatibly.
#: Schema 2 stores the SAT disk-last, ``(d_1+1, ..., d_k+1, M)``.
MANIFEST_SCHEMA_VERSION = 2

#: The last schema whose spills stored the SAT disk-first,
#: ``(M, d_1+1, ..., d_k+1)``; such tables are refused, never misread.
DISK_FIRST_SCHEMA = 1

#: Read granularity for whole-file hashing (1 MiB keeps memory flat).
_HASH_CHUNK = 1 << 20


def verify_level(level: Optional[str] = None) -> str:
    """Resolve the verification depth: argument > ``REPRO_VERIFY`` > header.

    Raises :class:`IntegrityError` on an unknown level — a typo'd
    ``REPRO_VERIFY=ful`` silently meaning "don't verify" would defeat
    the whole layer.
    """
    if level is None:
        level = os.environ.get(VERIFY_ENV) or "header"
    level = level.strip().lower()
    if level not in VERIFY_LEVELS:
        raise IntegrityError(
            f"unknown verification level {level!r}; "
            f"expected one of {VERIFY_LEVELS}"
        )
    return level


def sha256_hex(data: Union[bytes, memoryview]) -> str:
    """Hex sha256 of an in-memory buffer."""
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Union[str, os.PathLike]) -> str:
    """Hex sha256 of a file's contents, read in bounded chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_HASH_CHUNK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def atomic_write_json(path: Union[str, os.PathLike], document: dict) -> None:
    """Write JSON durably: temp file in the same directory + ``os.replace``.

    Readers never observe a torn sidecar — they see the old file or the
    new one, nothing in between.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def manifest_path(sat_path: Union[str, os.PathLike]) -> str:
    """The sidecar manifest path for a spilled SAT file."""
    return os.fspath(sat_path) + ".manifest.json"


@dataclass
class SatManifest:
    """Sidecar metadata of one spilled summed-area table.

    ``tile_starts[i]`` is the first *unpadded* leading-axis row of tile
    ``i``; tile ``i`` occupies padded rows ``[tile_starts[i] + 1,
    tile_starts[i+1] + 1)`` of the file, one contiguous slab (the
    leading zero plane at padded row 0 belongs to no tile and is
    checked separately at ``full``).  ``tile_digests[i]`` is the sha256
    of that slab's bytes, exactly as the chunked build wrote them.
    """

    dtype: str
    shape: Tuple[int, ...]
    num_disks: int
    tile_rows: int
    tile_starts: List[int]
    tile_digests: List[str]
    file_bytes: int
    params: Dict[str, object] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA_VERSION

    def content_digest(self) -> str:
        """One digest summarizing the whole table (digest of tile digests)."""
        return sha256_hex("".join(self.tile_digests).encode())

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "kind": "sat",
            "dtype": self.dtype,
            "shape": list(self.shape),
            "num_disks": self.num_disks,
            "tile_rows": self.tile_rows,
            "tile_starts": list(self.tile_starts),
            "tile_digests": list(self.tile_digests),
            "file_bytes": self.file_bytes,
            "content_digest": self.content_digest(),
            "params": self.params,
        }

    @classmethod
    def from_json(cls, document: dict, source: str) -> "SatManifest":
        try:
            manifest = cls(
                dtype=str(document["dtype"]),
                shape=tuple(int(d) for d in document["shape"]),
                num_disks=int(document["num_disks"]),
                tile_rows=int(document["tile_rows"]),
                tile_starts=[int(s) for s in document["tile_starts"]],
                tile_digests=[str(d) for d in document["tile_digests"]],
                file_bytes=int(document["file_bytes"]),
                params=dict(document.get("params", {})),
                schema=int(document.get("schema", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(
                f"{source}: malformed SAT manifest ({exc!r})"
            ) from None
        if manifest.schema == DISK_FIRST_SCHEMA:
            raise IntegrityError(
                f"{source}: manifest schema {DISK_FIRST_SCHEMA} describes "
                f"the retired disk-first SAT layout (M, d_1+1, ..., "
                f"d_k+1); this table must be rebuilt"
            )
        if manifest.schema != MANIFEST_SCHEMA_VERSION:
            raise IntegrityError(
                f"{source}: manifest schema {manifest.schema} != "
                f"{MANIFEST_SCHEMA_VERSION}"
            )
        if len(manifest.tile_starts) != len(manifest.tile_digests):
            raise IntegrityError(
                f"{source}: {len(manifest.tile_starts)} tile start(s) vs "
                f"{len(manifest.tile_digests)} digest(s)"
            )
        return manifest

    def write(self, sat_path: Union[str, os.PathLike]) -> str:
        """Write the sidecar next to ``sat_path``; returns its path."""
        path = manifest_path(sat_path)
        atomic_write_json(path, self.to_json())
        return path

    @classmethod
    def load(cls, sat_path: Union[str, os.PathLike]) -> "SatManifest":
        """Load and structurally validate the sidecar of ``sat_path``."""
        path = manifest_path(sat_path)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as exc:
            raise IntegrityError(
                f"{path}: unreadable SAT manifest ({exc!r})"
            ) from None
        return cls.from_json(document, path)


def _npy_header(path: str) -> Tuple[Tuple[int, ...], np.dtype, int]:
    """``(shape, dtype, data_offset)`` from a ``.npy`` file's header.

    Reads only the header — never maps the data — so it is safe on
    arbitrarily corrupt files; header-level damage becomes a typed
    :class:`IntegrityError`.
    """
    try:
        with open(path, "rb") as handle:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                header = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                header = np.lib.format.read_array_header_2_0(handle)
            else:
                raise IntegrityError(
                    f"{path}: unsupported .npy format version "
                    f"{version}"
                )
            shape, fortran, dtype = header
            offset = handle.tell()
    except (OSError, ValueError) as exc:
        raise IntegrityError(
            f"{path}: unreadable .npy header ({exc!r})"
        ) from None
    if fortran:
        raise IntegrityError(f"{path}: Fortran-order SATs are not produced")
    return tuple(int(d) for d in shape), np.dtype(dtype), int(offset)


#: Stat-keyed memo of header-verified SATs: path -> (signature,
#: manifest).  Header verification is a pure function of the table and
#: manifest files, so while both stat signatures (size, mtime_ns, inode)
#: are unchanged the previous verdict stands — repeat ``open_mmap``
#: calls in one process (cache rebuild probes, repeated reopens) skip
#: the JSON re-parse.  Any rewrite goes through
#: ``os.replace`` and changes the inode, invalidating the entry.
_HEADER_MEMO: Dict[str, Tuple[tuple, SatManifest]] = {}
_HEADER_MEMO_MAX = 64


def _stat_signature(path: str) -> tuple:
    table = os.stat(path)
    sidecar = os.stat(manifest_path(path))
    return (
        table.st_size, table.st_mtime_ns, table.st_ino,
        sidecar.st_size, sidecar.st_mtime_ns, sidecar.st_ino,
    )


def verify_sat(
    path: Union[str, os.PathLike], level: Optional[str] = None
) -> Optional[SatManifest]:
    """Check a spilled SAT against its sidecar manifest.

    Returns the manifest (``None`` at ``off``); raises
    :class:`IntegrityError` when the manifest is missing or of the
    retired disk-first schema, and whenever the artifact and manifest
    disagree.  See the module docstring for what each level checks.
    """
    level = verify_level(level)
    if level == "off":
        return None
    path = os.fspath(path)
    registry = global_registry()
    signature = None
    if level == "header":
        memo = _HEADER_MEMO.get(path)
        try:
            signature = _stat_signature(path)
        except OSError:
            signature = None  # fall through to the full code path
        if memo is not None and signature is not None:
            if memo[0] == signature:
                registry.inc("integrity.sat_verifications")
                return memo[1]
            _HEADER_MEMO.pop(path, None)
    try:
        manifest = SatManifest.load(path)
    except FileNotFoundError:
        registry.inc("integrity.sat_failures")
        raise IntegrityError(
            f"{path}: no sidecar manifest ({manifest_path(path)}); the "
            f".npy header cannot tell the disk-last layout from the "
            f"retired disk-first one, so the table is refused"
        ) from None
    except IntegrityError:
        registry.inc("integrity.sat_failures")
        raise

    try:
        actual_bytes = os.path.getsize(path)
    except OSError as exc:
        registry.inc("integrity.sat_failures")
        raise IntegrityError(f"{path}: unreadable ({exc!r})") from None
    shape, dtype, offset = _npy_header(path)
    failure = None
    if shape != manifest.shape:
        failure = f"shape {shape} != manifest {manifest.shape}"
    elif dtype != np.dtype(manifest.dtype):
        failure = f"dtype {dtype} != manifest {manifest.dtype}"
    elif actual_bytes != manifest.file_bytes:
        failure = (
            f"file is {actual_bytes} bytes, manifest recorded "
            f"{manifest.file_bytes} (truncated or torn write)"
        )
    if failure is not None:
        registry.inc("integrity.sat_failures")
        raise IntegrityError(f"{path}: {failure}")
    if level == "full":
        _verify_sat_tiles(path, manifest, shape, dtype, offset)
    elif signature is not None:
        if len(_HEADER_MEMO) >= _HEADER_MEMO_MAX:
            _HEADER_MEMO.pop(next(iter(_HEADER_MEMO)))
        _HEADER_MEMO[path] = (signature, manifest)
    registry.inc("integrity.sat_verifications")
    return manifest


def _verify_sat_tiles(
    path: str,
    manifest: SatManifest,
    shape: Tuple[int, ...],
    dtype: np.dtype,
    offset: int,
) -> None:
    """Re-hash every tile slab of a spilled SAT (the ``full`` check)."""
    registry = global_registry()
    array = np.memmap(
        path, dtype=dtype, mode="r", offset=offset, shape=shape
    )
    try:
        if np.any(np.asarray(array[0]) != 0):
            registry.inc("integrity.sat_failures")
            raise IntegrityError(
                f"{path}: leading pad plane is not all-zero"
            )
        leading = shape[0] - 1  # unpadded leading-axis extent
        boundaries = list(manifest.tile_starts) + [leading]
        covered = 0
        for index, start in enumerate(manifest.tile_starts):
            stop = boundaries[index + 1]
            if start != covered or stop <= start:
                registry.inc("integrity.sat_failures")
                raise IntegrityError(
                    f"{path}: manifest tiles do not cover the leading "
                    f"axis contiguously (tile {index} spans "
                    f"[{start}, {stop}) after {covered} covered row(s))"
                )
            covered = stop
            digest = sha256_hex(array[start + 1 : stop + 1].data)
            if digest != manifest.tile_digests[index]:
                registry.inc("integrity.sat_failures")
                raise IntegrityError(
                    f"{path}: tile {index} (rows [{start}, {stop})) "
                    f"digest mismatch — artifact is corrupt"
                )
        if covered != leading:
            registry.inc("integrity.sat_failures")
            raise IntegrityError(
                f"{path}: manifest tiles cover {covered} of {leading} "
                f"leading-axis row(s)"
            )
    finally:
        mmap_obj = getattr(array, "_mmap", None)
        del array
        if mmap_obj is not None:
            mmap_obj.close()


# ----------------------------------------------------------------------
# Compiled-library (.so) sidecars
# ----------------------------------------------------------------------


def library_digest_path(lib_path: Union[str, os.PathLike]) -> str:
    """The digest sidecar path for a cached compiled library."""
    return os.fspath(lib_path) + ".sha256"


def write_library_digest(lib_path: Union[str, os.PathLike]) -> str:
    """Record a freshly compiled library's content digest; returns it."""
    digest = file_sha256(lib_path)
    atomic_write_json(
        library_digest_path(lib_path),
        {"schema": MANIFEST_SCHEMA_VERSION, "kind": "library",
         "sha256": digest},
    )
    return digest


def read_library_digest(
    lib_path: Union[str, os.PathLike],
) -> Optional[str]:
    """The recorded digest of a cached library, or None when absent."""
    try:
        with open(library_digest_path(lib_path)) as handle:
            document = json.load(handle)
        return str(document["sha256"])
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(
            f"{library_digest_path(lib_path)}: malformed library digest "
            f"sidecar ({exc!r})"
        ) from None


def verify_library(
    lib_path: Union[str, os.PathLike], level: Optional[str] = None
) -> None:
    """Check a cached ``.so`` against its digest sidecar before loading.

    ``header`` and ``full`` both re-hash the library — kernel binaries
    are a few tens of kilobytes, so the full hash *is* the cheap check.
    A missing sidecar is tolerated (counted) except at ``full``; any
    mismatch raises :class:`IntegrityError`.
    """
    level = verify_level(level)
    if level == "off":
        return
    lib_path = os.fspath(lib_path)
    registry = global_registry()
    try:
        recorded = read_library_digest(lib_path)
    except IntegrityError:
        registry.inc("integrity.so_failures")
        raise
    if recorded is None:
        if level == "full":
            registry.inc("integrity.so_failures")
            raise IntegrityError(
                f"{lib_path}: no digest sidecar; REPRO_VERIFY=full "
                f"refuses unverifiable artifacts"
            )
        _LOG.warning(
            "compiled library %s has no digest sidecar; loading "
            "unverified", lib_path,
        )
        registry.inc("integrity.unverified_opens")
        return
    try:
        actual = file_sha256(lib_path)
    except OSError as exc:
        registry.inc("integrity.so_failures")
        raise IntegrityError(
            f"{lib_path}: unreadable ({exc!r})"
        ) from None
    if actual != recorded:
        registry.inc("integrity.so_failures")
        raise IntegrityError(
            f"{lib_path}: content digest mismatch — cached kernel "
            f"library is corrupt"
        )
    registry.inc("integrity.so_verifications")
