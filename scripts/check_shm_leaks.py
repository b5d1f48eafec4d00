#!/usr/bin/env python
"""CI gate: shared-memory arenas must not leak segments.

Publishes a handful of allocation tables through a
:class:`repro.core.shm.SharedAllocationArena` — including a duplicate
publish, whose losing segment must be unlinked at once — attaches them
back, closes the arena, and then asserts that no ``repro-shm-*``
segment survives in ``/dev/shm``.  Segments present before the run
(e.g. from a concurrent developer session) are tolerated and reported,
but anything newly created by this run must be gone: the arena owns
deterministic teardown, and this gate is its end-to-end proof.

A second leg proves the recovery tool: a stray segment is planted (as
a crashed run would leave one) and ``repro doctor --gc`` must find it,
unlink it, and exit zero — leaving ``/dev/shm`` clean.

A third leg covers the serving daemon's server-tagged segments
(``repro-shm-srv<pid>-*``): a planted orphan whose embedded owner pid
is dead must be swept by :func:`reap_stale_server_segments` (the
startup sweep every daemon restart runs), while a segment owned by a
*live* pid must survive both the reaper and ``doctor --gc``.

Usage::

    PYTHONPATH=src python scripts/check_shm_leaks.py
"""

import os
import sys

import numpy as np

from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.core.shm import (
    SHM_NAME_PREFIX,
    SharedAllocationArena,
    _open_segment,
    detach_all,
    reap_stale_server_segments,
    stray_segments,
)
from repro.doctor import run_doctor, scan_shm_segments

__all__ = ['main']


#: Triples the arena leg publishes; the first is published twice.
_TRIPLES = (("hcam", (16, 16), 8), ("dm", (12, 9), 5), ("fx", (8, 8), 4))


def _check_arena_teardown() -> "list[str]":
    """Publish and attach through an arena; close must unlink it all."""
    arena = SharedAllocationArena.try_create()
    if arena is None:
        return ["shared-memory arena unavailable on this host"]
    errors = []
    try:
        for name, dims, disks in _TRIPLES:
            grid = Grid(dims)
            built = get_scheme(name).allocate(grid, disks)
            shared = arena.broker.publish(name, grid, disks, built)
            attached = arena.broker.get(name, grid, disks)
            if attached is None or not np.array_equal(
                attached.table, built.table
            ):
                errors.append(f"{name} {dims} M={disks}: bad attach")
            del shared, attached
        name, dims, disks = _TRIPLES[0]
        duplicate = get_scheme(name).allocate(Grid(dims), disks)
        arena.broker.publish(name, Grid(dims), disks, duplicate)
        strays = set(stray_segments())
        live = [
            segment for segment in arena.broker.segment_names()
            if segment in strays
        ]
        if len(live) != len(_TRIPLES):
            errors.append(
                f"expected {len(_TRIPLES)} live segment(s) before "
                f"close (the duplicate unlinked at once), got {live}"
            )
    finally:
        arena.close()
        detach_all()
    return errors


def _check_doctor_gc() -> "list[str]":
    """Plant a crashed-run segment; ``doctor --gc`` must remove it."""
    errors = []
    name = f"{SHM_NAME_PREFIX}-crashed-{os.getpid()}"
    segment = _open_segment(name, create=True, size=64)  # qa602: allow — the planted leak IS the fixture; doctor --gc owns the unlink
    segment.close()
    if name not in set(stray_segments()):
        return [f"planted segment {name} is not visible as stray"]
    report = run_doctor(gc=True, scanners=[scan_shm_segments])
    print(report.render())
    if name in set(stray_segments()):
        errors.append(f"doctor --gc left planted segment {name} behind")
    if report.exit_code() != 0:
        errors.append(
            f"doctor --gc exited {report.exit_code()} on a stray "
            f"segment it should have collected"
        )
    return errors


def _check_server_segments() -> "list[str]":
    """Dead-owner server segments reaped; live-owner segments kept."""
    errors = []
    orphan = f"{SHM_NAME_PREFIX}-srv999999-leakcheck"
    live = f"{SHM_NAME_PREFIX}-srv{os.getpid()}-leakcheck"
    for name in (orphan, live):
        segment = _open_segment(name, create=True, size=64)  # qa602: allow — planted server segments ARE the fixture; the reaper owns the unlink
        segment.close()
    try:
        reaped = {name.lstrip("/") for name in reap_stale_server_segments()}
        if orphan not in reaped:
            errors.append(
                f"reap_stale_server_segments missed orphan {orphan}"
            )
        remaining = set(stray_segments())
        if live not in remaining:
            errors.append(
                f"reaper collected live-owner segment {live}"
            )
        # doctor --gc must also leave the live server's segment alone.
        run_doctor(gc=True, scanners=[scan_shm_segments])
        if live not in set(stray_segments()):
            errors.append(
                f"doctor --gc collected live-owner segment {live}"
            )
    finally:
        from repro.core.shm import unlink_segment

        unlink_segment(live)
        unlink_segment(orphan)
    return errors


def main() -> int:
    before = set(stray_segments())
    if before:
        print(
            f"shm leak check: {len(before)} pre-existing segment(s) "
            f"(tolerated): {sorted(before)}"
        )
    arena_errors = _check_arena_teardown()
    if arena_errors:
        for error in arena_errors:
            print(f"shm leak check: FAILED — {error}", file=sys.stderr)
        return 1
    leaked = sorted(set(stray_segments()) - before)
    if leaked:
        print(
            f"shm leak check: FAILED — {len(leaked)} leaked segment(s): "
            f"{leaked}",
            file=sys.stderr,
        )
        return 1
    print("shm leak check: ok — no stray /dev/shm segments after close")
    doctor_errors = _check_doctor_gc()
    if doctor_errors:
        for error in doctor_errors:
            print(f"shm leak check: FAILED — {error}", file=sys.stderr)
        return 1
    print("shm leak check: ok — doctor --gc collects crashed-run segments")
    server_errors = _check_server_segments()
    if server_errors:
        for error in server_errors:
            print(f"shm leak check: FAILED — {error}", file=sys.stderr)
        return 1
    print(
        "shm leak check: ok — dead-owner server segments reaped, "
        "live-owner kept"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
