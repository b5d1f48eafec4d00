"""``repro doctor``: scan, diagnose, and garbage-collect on-disk artifacts.

The artifact layer leaves two kinds of state on a machine: spilled
summed-area tables (``repro-sat-*.npy`` plus manifest and, after a
crash, a chunked build's staging set: ``<table>.partial`` and that
partial's own ``<table>.partial.manifest.json``), and the
compiled-kernel cache (``reprokern-*.so`` with digest sidecars,
and ``.c``/``.tmp`` leftovers from failed compiles).  The doctor walks both:

* **report** (default): verify every artifact against its sidecar
  (:mod:`repro.core.integrity`), classify each finding, and exit
  non-zero when anything needs attention;
* **``--gc``**: additionally remove what cannot or should not be kept —
  corrupt artifacts, orphaned sidecars, failed-compile leftovers,
  interrupted-build staging sets.
  Resumable build sets are reported as such before removal, so an
  operator who wants the resume simply re-runs the build instead of
  the doctor.

Classifications:

``corrupt``
    the artifact contradicts its sidecar (or is structurally broken,
    e.g. a zero-byte ``.so``) — gc removes it;
``stale``
    leftover state no live build owns (a staging set missing its
    partial or a loadable manifest, the two extra sidecars older
    builds staged, compile temps, orphaned sidecars), or
    a spilled SAT of the retired disk-first layout (a schema-1
    manifest, or no manifest at all, so its layout is unknowable) —
    gc removes it;
``resumable``
    an interrupted chunked build whose partial exists and whose
    manifest loads through :meth:`SatManifest.load`, the loader the
    build resumes through (the build itself then re-verifies the
    tiles) — gc removes it, but the report says a re-run would resume
    it instead;
``unverified``
    a cached ``.so`` with no digest sidecar — reported, never removed;
``ok``
    verified clean (listed only in ``--json`` output).
"""

from __future__ import annotations

import glob
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.exceptions import IntegrityError
from repro.core.integrity import (
    DISK_FIRST_SCHEMA,
    SatManifest,
    library_digest_path,
    manifest_path,
    verify_level,
    verify_library,
    verify_sat,
)
from repro.core.sat import build_partial_path
from repro.obs.log import get_logger

__all__ = [
    "ArtifactIssue",
    "DoctorReport",
    "run_doctor",
    "scan_native_cache",
    "scan_sat_artifacts",
]

_LOG = get_logger("repro.doctor")

#: Classification ranks for exit-code purposes: anything at or above
#: ``stale`` makes a plain report exit non-zero.
_ACTIONABLE = ("corrupt", "stale", "resumable")


@dataclass
class ArtifactIssue:
    """One classified artifact (see module docstring for the states)."""

    kind: str  #: "sat" | "sat-build" | "native"
    state: str  #: "ok" | "unverified" | "resumable" | "stale" | "corrupt"
    path: str
    detail: str
    #: Files that ``--gc`` would remove.
    removals: List[str]

    @property
    def actionable(self) -> bool:
        return self.state in _ACTIONABLE

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "state": self.state,
            "path": self.path,
            "detail": self.detail,
            "removals": list(self.removals),
        }


def _sat_dir() -> str:
    return os.environ.get("REPRO_SAT_DIR") or tempfile.gettempdir()


def _native_dir() -> str:
    # Mirrors repro.core.backends.native._cache_dir without importing
    # the backend (the doctor must run even where ctypes/cc are broken).
    configured = os.environ.get("REPRO_NATIVE_CACHE")
    if configured:
        return configured
    return os.path.join(
        tempfile.gettempdir(), f"repro-native-{os.getuid()}"
    )


def _load_sidecar_json(path: str):
    import json

    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def scan_sat_artifacts(
    directory: Optional[str] = None, level: Optional[str] = None
) -> List[ArtifactIssue]:
    """Classify every spilled SAT and build-staging set in ``directory``.

    Only repro-owned files are considered: ``repro-sat-*`` temp spills,
    any ``.npy`` with a manifest sidecar, chunked-build staging sets
    (``*.npy.partial`` / ``*.npy.partial.manifest.json``), and the
    extra sidecars older builds staged beside them.
    """
    directory = directory or _sat_dir()
    level = verify_level(level)
    issues: List[ArtifactIssue] = []
    if not os.path.isdir(directory):
        return issues

    tables = set(glob.glob(os.path.join(directory, "repro-sat-*.npy")))
    for sidecar in glob.glob(
        os.path.join(directory, "*.npy.manifest.json")
    ):
        tables.add(sidecar[: -len(".manifest.json")])
    staged = set()
    for suffix in (".partial", ".partial.manifest.json"):
        for leftover in glob.glob(os.path.join(directory, "*.npy" + suffix)):
            staged.add(leftover[: -len(suffix)])
    # Older builds staged two more sidecars; no build reads them now.  A
    # ``repro-sat-*`` one is already a manifest-less table above.
    legacy = {
        leftover
        for pattern in ("*.npy.journal.json", "*.npy.carry.npy")
        for leftover in glob.glob(os.path.join(directory, pattern))
    } - tables

    for path in sorted(tables):
        manifest = manifest_path(path)
        if not os.path.exists(path):
            issues.append(
                ArtifactIssue(
                    kind="sat",
                    state="stale",
                    path=manifest,
                    detail="manifest without its table",
                    removals=[manifest],
                )
            )
            continue
        if not os.path.exists(manifest):
            issues.append(
                ArtifactIssue(
                    kind="sat",
                    state="stale",
                    path=path,
                    detail=(
                        "no sidecar manifest: the table's layout cannot "
                        "be read from its header, so it is never opened"
                    ),
                    removals=[path],
                )
            )
            continue
        document = _load_sidecar_json(manifest)
        if (
            isinstance(document, dict)
            and document.get("schema") == DISK_FIRST_SCHEMA
        ):
            issues.append(
                ArtifactIssue(
                    kind="sat",
                    state="stale",
                    path=path,
                    detail=(
                        f"manifest schema {DISK_FIRST_SCHEMA}: the retired "
                        f"disk-first layout; rebuild the table"
                    ),
                    removals=[path, manifest],
                )
            )
            continue
        try:
            # The doctor's depth is the caller's REPRO_VERIFY/--verify,
            # but never weaker than header: an 'off' doctor would be
            # a scan that scans nothing.
            verify_sat(path, "header" if level == "off" else level)
            issues.append(
                ArtifactIssue(
                    kind="sat",
                    state="ok",
                    path=path,
                    detail="verified",
                    removals=[],
                )
            )
        except IntegrityError as exc:
            issues.append(
                ArtifactIssue(
                    kind="sat",
                    state="corrupt",
                    path=path,
                    detail=str(exc),
                    removals=[path, manifest],
                )
            )

    for base in sorted(staged):
        partial = build_partial_path(base)
        parts = [
            p for p in (partial, manifest_path(partial)) if os.path.exists(p)
        ]
        try:
            SatManifest.load(partial)
            resumable = os.path.exists(partial)
        except (OSError, IntegrityError):
            resumable = False
        if resumable:
            state = "resumable"
            detail = (
                "interrupted chunked build; re-running the build for "
                f"{os.path.basename(base)} resumes it"
            )
        else:
            state = "stale"
            detail = (
                "dead build staging files (partial or its manifest "
                "missing or unreadable)"
            )
        issues.append(
            ArtifactIssue(
                kind="sat-build",
                state=state,
                path=base,
                detail=detail,
                removals=parts,
            )
        )
    for leftover in sorted(legacy):
        issues.append(
            ArtifactIssue(
                kind="sat-build",
                state="stale",
                path=leftover,
                detail="build sidecar of an older format; no build reads it",
                removals=[leftover],
            )
        )
    return issues


def scan_native_cache(
    directory: Optional[str] = None, level: Optional[str] = None
) -> List[ArtifactIssue]:
    """Classify every cached kernel library and compile leftover."""
    directory = directory or _native_dir()
    level = verify_level(level)
    issues: List[ArtifactIssue] = []
    if not os.path.isdir(directory):
        return issues

    libraries = sorted(
        glob.glob(os.path.join(directory, "reprokern-*.so"))
    )
    for lib in libraries:
        sidecar = library_digest_path(lib)
        try:
            if os.path.getsize(lib) == 0:
                raise IntegrityError("zero-byte shared library")
            if not os.path.exists(sidecar):
                issues.append(
                    ArtifactIssue(
                        kind="native",
                        state="unverified",
                        path=lib,
                        detail="no digest sidecar (pre-integrity cache)",
                        removals=[],
                    )
                )
                continue
            verify_library(lib, "header" if level == "off" else level)
            issues.append(
                ArtifactIssue(
                    kind="native",
                    state="ok",
                    path=lib,
                    detail="verified",
                    removals=[],
                )
            )
        except (IntegrityError, OSError) as exc:
            issues.append(
                ArtifactIssue(
                    kind="native",
                    state="corrupt",
                    path=lib,
                    detail=str(exc),
                    removals=[lib, sidecar]
                    if os.path.exists(sidecar)
                    else [lib],
                )
            )

    lib_stems = {lib[: -len(".so")] for lib in libraries}
    for leftover in sorted(
        glob.glob(os.path.join(directory, "reprokern-*.so.*.tmp"))
    ):
        issues.append(
            ArtifactIssue(
                kind="native",
                state="stale",
                path=leftover,
                detail="temp object from an interrupted compile",
                removals=[leftover],
            )
        )
    for source in sorted(
        glob.glob(os.path.join(directory, "reprokern-*.c"))
    ):
        if source[: -len(".c")] not in lib_stems:
            issues.append(
                ArtifactIssue(
                    kind="native",
                    state="stale",
                    path=source,
                    detail="kernel source without its library "
                    "(failed compile)",
                    removals=[source],
                )
            )
    for sidecar in sorted(
        glob.glob(os.path.join(directory, "reprokern-*.so.sha256"))
    ):
        if sidecar[: -len(".sha256")] not in libraries:
            issues.append(
                ArtifactIssue(
                    kind="native",
                    state="stale",
                    path=sidecar,
                    detail="digest sidecar without its library",
                    removals=[sidecar],
                )
            )
    return issues


def _gc_issue(issue: ArtifactIssue) -> List[str]:
    """Remove one issue's artifacts; returns what was actually removed."""
    removed: List[str] = []
    for path in issue.removals:
        try:
            os.unlink(path)
            removed.append(path)
        except OSError as exc:
            _LOG.warning("doctor gc could not remove %s: %r", path, exc)
    return removed


@dataclass
class DoctorReport:
    """Everything one doctor run found (and, with gc, removed)."""

    issues: List[ArtifactIssue]
    removed: List[str]
    gc: bool

    @property
    def actionable(self) -> List[ArtifactIssue]:
        return [issue for issue in self.issues if issue.actionable]

    @property
    def clean(self) -> bool:
        return not self.actionable

    def exit_code(self) -> int:
        """0 when clean or everything actionable was gc'd; 1 otherwise."""
        if self.clean:
            return 0
        if not self.gc:
            return 1
        for issue in self.actionable:
            for target in issue.removals:
                if os.path.exists(target):
                    return 1
        return 0

    def to_json(self) -> Dict[str, object]:
        return {
            "issues": [issue.to_json() for issue in self.issues],
            "removed": list(self.removed),
            "gc": self.gc,
            "clean": self.clean,
        }

    def render(self) -> str:
        lines: List[str] = []
        reported = [i for i in self.issues if i.state != "ok"]
        ok_count = len(self.issues) - len(reported)
        for issue in reported:
            lines.append(
                f"[{issue.state:>10s}] {issue.kind:<9s} {issue.path}"
                f" — {issue.detail}"
            )
        if self.gc and self.removed:
            lines.append(f"gc: removed {len(self.removed)} artifact(s)")
            for path in self.removed:
                lines.append(f"  removed {path}")
        if not reported:
            lines.append(
                f"doctor: clean ({ok_count} verified artifact(s), "
                f"no leftovers)"
            )
        else:
            lines.append(
                f"doctor: {len(reported)} finding(s), "
                f"{ok_count} verified artifact(s)"
            )
        return "\n".join(lines)


def run_doctor(
    sat_dir: Optional[str] = None,
    native_cache: Optional[str] = None,
    level: Optional[str] = None,
    gc: bool = False,
    scanners: Optional[
        List[Callable[[], List[ArtifactIssue]]]
    ] = None,
) -> DoctorReport:
    """Scan all artifact stores, optionally garbage-collecting.

    ``scanners`` overrides the scan list (tests inject single scans);
    the default covers SAT spills and the native kernel cache.
    """
    if scanners is None:
        scanners = [
            lambda: scan_sat_artifacts(sat_dir, level),
            lambda: scan_native_cache(native_cache, level),
        ]
    issues: List[ArtifactIssue] = []
    for scan in scanners:
        issues.extend(scan())
    removed: List[str] = []
    if gc:
        for issue in issues:
            if issue.actionable:
                removed.extend(_gc_issue(issue))
    return DoctorReport(issues=issues, removed=removed, gc=gc)
