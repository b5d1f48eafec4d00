"""Zero-copy allocation sharing over ``multiprocessing.shared_memory``.

The ``repro serve`` worker fleet answers batches in spawn-context
processes.  Each worker imports the package fresh, so without
coordination every worker re-materializes the same
``(scheme, grid, M)`` allocations the daemon already built — the exact
duplication the in-process :class:`~repro.core.cache.AllocationCache`
eliminates within one process.  This module extends that cache across
processes:

* :func:`share_allocation` copies an allocation's (compact-dtype) table
  into a named ``SharedMemory`` segment and returns a tiny picklable
  :class:`SharedTableHandle`;
* :func:`attach_allocation` maps a handle back into a read-only
  :class:`~repro.core.allocation.DiskAllocation` **without copying** —
  the numpy table is a view straight onto the shared segment;
* :class:`SharedAllocationBroker` is the cross-process registry the
  cache consults on a miss: the first process to build a triple
  publishes it, every other process attaches zero-copy;
* :class:`SharedAllocationArena` is the parent-side owner: it hosts the
  broker's managed state and guarantees **deterministic teardown** —
  every segment ever reserved is unlinked in :meth:`~SharedAllocationArena.close`,
  even segments whose publishing worker crashed mid-write.

Correctness notes.  Scheme allocation is contractually deterministic
(QA405), so a table attached from another process is bit-identical to
the one the attaching process would have built — sharing is
semantics-free, it only moves time and memory around.  The broker keys
on the *scheme name* alone (handles must be picklable); it is therefore
only installed by the serve daemon, whose spawn workers see the
pristine default registry — never share a broker across processes that
re-register scheme names.

Resource-tracker note.  Python's ``resource_tracker`` would unlink a
segment as soon as *any* tracked process exits, which is exactly wrong
for segments whose lifetime the arena owns.  Every ``SharedMemory``
opened here is immediately untracked (``track=False`` on 3.13+, manual
unregister before that); the arena's name ledger is the single source
of truth for teardown.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.allocation import DiskAllocation, table_dtype
from repro.core.grid import Grid
from repro.faults.io import maybe_io_fault
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry
from repro.obs.trace import trace

_LOG = get_logger("repro.core.shm")

__all__ = [
    "SHM_NAME_PREFIX",
    "MmapSatHandle",
    "SharedAllocationArena",
    "SharedAllocationBroker",
    "SharedTableHandle",
    "attach_allocation",
    "reap_stale_server_segments",
    "segment_owner_pid",
    "server_segment_prefix",
    "share_allocation",
    "stray_segments",
]

#: Every segment this module creates starts with this prefix, which is
#: what the leak check greps /dev/shm for.
SHM_NAME_PREFIX = "repro-shm"

#: Segments whose lifetime is owned by a long-running server process
#: carry the owner's pid in the name (``repro-shm-srv<pid>-...``), so a
#: later process — a restarted daemon, ``repro doctor`` — can tell a
#: live server's segments from a crashed one's without the (long gone)
#: ledger.  Short-lived runs keep the untagged historical names.
_SERVER_OWNER_RE = re.compile(
    rf"^{re.escape(SHM_NAME_PREFIX)}-srv(\d+)-"
)


def server_segment_prefix(pid: Optional[int] = None) -> str:
    """The segment-name prefix a server owned by ``pid`` must use."""
    return f"{SHM_NAME_PREFIX}-srv{os.getpid() if pid is None else pid}"


def segment_owner_pid(name: str) -> Optional[int]:
    """The owner pid embedded in a server-tagged segment name, or None.

    Only names carrying the explicit ``srv`` marker resolve — a bare
    pid-looking token in an untagged name (the historical
    ``repro-shm-<pid>-<token>`` form) stays anonymous on purpose, so
    crashed short-lived runs are never mistaken for live servers.
    """
    match = _SERVER_OWNER_RE.match(name)
    return int(match.group(1)) if match else None


def _pid_alive(pid: int) -> bool:
    """True if a process with ``pid`` currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap_stale_server_segments(
    prefix: str = SHM_NAME_PREFIX,
) -> List[str]:
    """Unlink server-tagged segments whose owner process is gone.

    A daemon that restarts cannot rely on its predecessor's ledger (it
    died with the manager process), so at startup it sweeps ``/dev/shm``
    for ``srv``-tagged names and unlinks every one whose embedded owner
    pid no longer exists.  Segments owned by a *live* pid — another
    server still running — are left alone.  Returns the reaped names.
    """
    reaped = []
    for name in stray_segments(prefix):
        owner = segment_owner_pid(name)
        if owner is None or _pid_alive(owner):
            continue
        if unlink_segment(name):
            reaped.append(name)
    if reaped:
        _LOG.info(
            "reaped %d stale server segment(s): %s",
            len(reaped), ", ".join(reaped),
        )
        global_registry().inc("shm.reaped_segments", len(reaped))
    return reaped


@contextlib.contextmanager
def _tracker_silenced():
    """Suppress resource-tracker traffic for the enclosed shm calls.

    Pre-3.13 ``SharedMemory`` registers every open (attach included)
    with the resource tracker and unregisters inside ``unlink()``.  The
    tracker's registry is a *set* shared by all processes of a spawn
    tree, so concurrent opens of one segment from two workers collapse
    to a single entry and the second unregister crashes the tracker
    loop with a KeyError.  Since the arena owns segment lifetime
    outright, the clean semantics are 3.13's ``track=False``: no
    tracker traffic at all — which this shim retrofits by no-opping
    the module hooks around the stdlib call.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister
    resource_tracker.register = lambda name, rtype: None
    resource_tracker.unregister = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = original_register
        resource_tracker.unregister = original_unregister


def _open_segment(name: str, create: bool = False, size: int = 0):
    """Open a ``SharedMemory`` segment outside resource-tracker custody."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(
            name=name, create=create, size=size, track=False
        )
    except TypeError:  # Python < 3.13: no track parameter
        with _tracker_silenced():
            return shared_memory.SharedMemory(
                name=name, create=create, size=size
            )


@dataclass(frozen=True)
class SharedTableHandle:
    """Everything needed to re-open a shared allocation table.

    Small and picklable — this is what crosses process boundaries in
    place of the table itself.
    """

    name: str
    dims: Tuple[int, ...]
    num_disks: int

    @property
    def nbytes(self) -> int:
        """Size of the shared table in bytes."""
        size = 1
        for extent in self.dims:
            size *= int(extent)
        return size * table_dtype(self.num_disks).itemsize


@dataclass(frozen=True)
class MmapSatHandle:
    """Everything needed to re-open a chunked/spilled summed-area table.

    The ``.npy`` header already carries shape and dtype, so the *path*
    alone is a complete handle — tiny, picklable, and safe to pass
    through spawn-pool initializers next to :class:`SharedTableHandle`.
    Unlike shared-memory segments there is nothing to unlink: the file's
    owner controls its lifetime, and any number of processes may map it
    read-only at once.
    """

    path: str

    def attach(self):
        """Memory-map the table read-only (zero-copy, per process)."""
        from repro.core.sat import SummedAreaTable

        return SummedAreaTable.open_mmap(self.path)

    def attach_engine(self):
        """Memory-map the table and wrap it in a query engine."""
        from repro.core.engine import ResponseTimeEngine

        return ResponseTimeEngine.open_mmap(self.path)

    @property
    def nbytes(self) -> int:
        """Size of the backing file in bytes."""
        return os.path.getsize(self.path)


#: Segments this process has attached, kept alive for the lifetime of
#: the numpy views handed out (closing a SharedMemory invalidates its
#: buffer).  Keyed by segment name; attach is idempotent per process.
_ATTACHED: Dict[str, object] = {}


def share_allocation(
    allocation: DiskAllocation, name: Optional[str] = None
) -> SharedTableHandle:
    """Copy an allocation's table into a named shared-memory segment.

    Returns the handle; the segment stays alive until someone unlinks it
    (the arena's job).  ``name`` defaults to a fresh unique name under
    :data:`SHM_NAME_PREFIX`.
    """
    if name is None:
        name = f"{SHM_NAME_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
    table = allocation.table
    with trace("shm.share", segment=name, nbytes=int(table.nbytes)):
        segment = _open_segment(name, create=True, size=table.nbytes)
        try:
            view = np.ndarray(
                table.shape, dtype=table.dtype, buffer=segment.buf
            )
            view[...] = table
        finally:
            # The data is in the kernel object; this process-local
            # mapping can close (attach_allocation re-opens it when
            # needed).
            segment.close()
    global_registry().inc("shm.shares")
    return SharedTableHandle(
        name=name,
        dims=allocation.grid.dims,
        num_disks=allocation.num_disks,
    )


def attach_allocation(handle: SharedTableHandle) -> DiskAllocation:
    """Map a shared table back into a zero-copy ``DiskAllocation``.

    Raises ``FileNotFoundError`` if the segment no longer exists (e.g.
    the run that published it already tore down) — callers treat that as
    a cache miss.
    """
    segment = _ATTACHED.get(handle.name)
    if segment is None:
        maybe_io_fault("shm.attach", handle.name)
        with trace("shm.attach", segment=handle.name):
            segment = _open_segment(handle.name)
        # _ATTACHED is deliberately per-process: each worker ledgers
        # only its own mappings and detach_all() closes exactly those.
        _ATTACHED[handle.name] = segment  # qa601: allow — per-process segment ledger by design
        global_registry().inc("shm.attaches")
    table = np.ndarray(
        handle.dims,
        dtype=table_dtype(handle.num_disks),
        buffer=segment.buf,  # type: ignore[attr-defined]
    )
    return DiskAllocation.from_buffer(
        Grid(handle.dims), handle.num_disks, table
    )


def detach_all() -> int:
    """Close every segment this process attached; returns the count.

    Only safe when no live ``DiskAllocation`` still views the buffers —
    used by tests and at deliberate teardown points.
    """
    count = 0
    for name in list(_ATTACHED):
        segment = _ATTACHED.pop(name)
        try:
            segment.close()
        except OSError as exc:
            # Mapping already invalidated; nothing left to release, but
            # record the cause so leaked segments stay diagnosable.
            _LOG.debug("detach of segment %s failed: %r", name, exc)
            global_registry().inc("shm.detach_errors")
        count += 1
    return count


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of one segment; True if it existed."""
    try:
        segment = _ATTACHED.pop(name, None) or _open_segment(name)  # qa601: allow — removes only this process's ledger entry
    except FileNotFoundError:
        return False
    try:
        with _tracker_silenced():
            segment.unlink()
    except FileNotFoundError:
        return False
    finally:
        try:
            segment.close()
        except OSError as exc:
            # Already closed or mapping gone; the unlink itself
            # happened, but leave a trace of the close failure.
            _LOG.debug("close after unlink of %s failed: %r", name, exc)
            global_registry().inc("shm.close_errors")
    global_registry().inc("shm.unlinked_segments")
    return True


def stray_segments(prefix: str = SHM_NAME_PREFIX) -> list:
    """Names of live shared-memory segments under ``prefix``.

    Reads ``/dev/shm`` where available (Linux); elsewhere returns an
    empty list.  The CI leak gate asserts this is empty after an arena
    closes.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(
        entry
        for entry in os.listdir(shm_dir)
        if entry.startswith(prefix)
    )


class SharedAllocationBroker:
    """Cross-process publish/attach registry for allocation tables.

    Holds only picklable manager proxies, so the whole broker travels to
    spawn workers as a constructor argument.  Workers call :meth:`get` on
    a cache miss and :meth:`publish` after building — the first writer
    wins, later writers discard their duplicate segment and attach the
    winner's.
    """

    def __init__(self, registry, ledger, prefix: str):
        self._registry = registry  # key -> SharedTableHandle
        self._ledger = ledger  # every segment name ever reserved
        self._prefix = prefix
        self._counter = itertools.count()

    @staticmethod
    def _key(scheme_name: str, grid: Grid, num_disks: int) -> str:
        return f"{scheme_name}|{grid.dims}|{int(num_disks)}"

    @staticmethod
    def _sat_key(scheme_name: str, grid: Grid, num_disks: int) -> str:
        # Distinct namespace from the in-RAM table keys: the same triple
        # may be published both as a shared-memory table and as a
        # spilled SAT path.
        return f"sat|{scheme_name}|{grid.dims}|{int(num_disks)}"

    def get_sat(
        self, scheme_name: str, grid: Grid, num_disks: int
    ) -> Optional[MmapSatHandle]:
        """The published spilled-SAT handle for the triple, or None.

        The path is existence-checked before it is returned, so a
        handle whose backing file was deleted behaves like a miss (the
        caller builds and republishes) instead of an open error.
        """
        handle = self._registry.get(
            self._sat_key(scheme_name, grid, num_disks)
        )
        if handle is None or not os.path.exists(handle.path):
            return None
        return handle

    def publish_sat(
        self,
        scheme_name: str,
        grid: Grid,
        num_disks: int,
        path: Union[str, os.PathLike],
    ) -> MmapSatHandle:
        """Publish the path of a finished spilled SAT (first writer wins).

        Unlike :meth:`publish` there is no segment to copy or unlink —
        the handle *is* the path, any number of workers may map the file
        read-only at once, and the OS page cache backs them all with one
        set of physical pages.  That single shared mapping is the whole
        point: an N-worker fleet touching one beyond-RAM table
        faults each page in once, not N times.
        """
        handle = MmapSatHandle(path=os.fspath(path))
        key = self._sat_key(scheme_name, grid, num_disks)
        try:
            winner = self._registry.setdefault(key, handle)
        except Exception as exc:  # qa502: allow — logged and counted, the private handle is correct
            _LOG.warning(
                "spilled-SAT publish of %s fell back to a private "
                "handle (broker registry unreachable): %r", key, exc,
            )
            global_registry().inc("shm.publish_fallbacks")
            return handle
        if winner.path != handle.path:
            return winner
        global_registry().inc("shm.sat_publishes")
        return handle

    def _reserve_name(self) -> str:
        # The name goes on the ledger *before* the segment exists, so a
        # crash between reservation and creation leaks nothing the
        # arena's teardown cannot find.
        name = (
            f"{self._prefix}-{os.getpid()}-{next(self._counter)}"
        )
        self._ledger.append(name)
        return name

    def get(
        self, scheme_name: str, grid: Grid, num_disks: int
    ) -> Optional[DiskAllocation]:
        """Zero-copy attach of a previously published triple, or None."""
        handle = self._registry.get(self._key(scheme_name, grid, num_disks))
        if handle is None:
            return None
        try:
            return attach_allocation(handle)
        except FileNotFoundError:
            return None
        except OSError as exc:
            # The segment exists but could not be mapped (EMFILE, a
            # half-torn-down arena, an injected fault): treat it as a
            # cache miss — the caller rebuilds privately — but loudly.
            _LOG.warning(
                "shm attach of %s failed, rebuilding privately: %r",
                handle.name,
                exc,
            )
            global_registry().inc("shm.attach_faults")
            return None

    def publish(
        self,
        scheme_name: str,
        grid: Grid,
        num_disks: int,
        allocation: DiskAllocation,
    ) -> DiskAllocation:
        """Publish a freshly built allocation; returns the shared copy.

        The returned allocation views shared memory (so even the
        publishing process drops its private table once the entry is
        cached).  On a publish race the duplicate segment is unlinked
        and the winner's table attached instead.
        """
        key = self._key(scheme_name, grid, num_disks)
        name = self._reserve_name()
        handle = share_allocation(allocation, name=name)  # qa602: allow — name pre-reserved in the broker ledger, which owns teardown
        try:
            winner = self._registry.setdefault(key, handle)
        except Exception as exc:  # qa502: allow — logged and counted, private fallback is correct
            # Manager connection gone (teardown raced us): fall back to
            # the private allocation; the ledger still covers the
            # segment.  Previously swallowed silently — now logged and
            # counted so broker outages are diagnosable.
            _LOG.warning(
                "shm publish of %s fell back to a private table "
                "(broker registry unreachable): %r", key, exc,
            )
            global_registry().inc("shm.publish_fallbacks")
            return allocation
        if winner.name != handle.name:
            unlink_segment(handle.name)
            attached = self.get(scheme_name, grid, num_disks)
            if attached is not None:
                return attached
            return allocation
        try:
            return attach_allocation(handle)
        except OSError as exc:
            # We just created the segment, so a failed re-attach is a
            # torn-down arena or an injected fault; the private table
            # is still correct — serve it and count the degradation.
            _LOG.warning(
                "re-attach of freshly published %s failed, serving "
                "the private table: %r",
                handle.name,
                exc,
            )
            global_registry().inc("shm.attach_faults")
            return allocation

    def segment_names(self) -> list:
        """Every segment name ever reserved through this broker."""
        return list(self._ledger)

    def unlink_all(self) -> int:
        """Unlink every reserved segment; returns how many existed."""
        count = 0
        for name in self.segment_names():
            if unlink_segment(name):
                count += 1
        return count


class SharedAllocationArena:
    """Parent-side owner of a broker and its manager process.

    Usage (what the serve daemon does)::

        arena = SharedAllocationArena.try_create()
        try:
            ...  # hand arena.broker to the worker processes
        finally:
            if arena is not None:
                arena.close()

    ``close`` unlinks every segment on the ledger and shuts the manager
    down — after it returns, ``stray_segments()`` sees nothing from this
    run even if workers crashed or hung mid-publish.
    """

    def __init__(
        self,
        manager,
        broker: SharedAllocationBroker,
        prefix: Optional[str] = None,
    ):
        self._manager = manager
        self.broker = broker
        # Remembered parent-side so teardown can sweep /dev/shm by
        # prefix even when the manager (and with it the ledger proxy)
        # is already dead.
        self._prefix = prefix if prefix is not None else broker._prefix

    @classmethod
    def try_create(
        cls, server_owned: bool = False
    ) -> Optional["SharedAllocationArena"]:
        """Build an arena, or None where managers/shm are unavailable.

        ``server_owned=True`` tags every segment name with this
        process's pid (``repro-shm-srv<pid>-...``) so restarted daemons
        and ``repro doctor`` can distinguish a live server's segments
        from a crashed one's — see :func:`reap_stale_server_segments`.
        """
        if os.environ.get("REPRO_DISABLE_SHM") == "1":
            return None
        if server_owned:
            prefix = f"{server_segment_prefix()}-{secrets.token_hex(4)}"
        else:
            prefix = f"{SHM_NAME_PREFIX}-{secrets.token_hex(4)}"
        try:
            import multiprocessing

            manager = multiprocessing.Manager()
            broker = SharedAllocationBroker(
                manager.dict(),
                manager.list(),
                prefix=prefix,
            )
        except Exception as exc:  # qa502: allow — logged and counted, None disables sharing
            # No manager / no shm on this platform: callers degrade
            # to per-process private tables.  Previously
            # swallowed silently — now logged and counted so "why is
            # nothing shared?" has an answer.
            _LOG.warning(
                "shared-memory arena unavailable, running without "
                "zero-copy sharing: %r", exc,
            )
            global_registry().inc("shm.arena_failures")
            return None
        return cls(manager, broker, prefix=prefix)

    def close(self) -> None:
        """Unlink all segments, then stop the manager (idempotent).

        Teardown never trusts the ledger alone: after draining it (or
        failing to — the manager hosting the ledger proxy may already
        be dead), every surviving ``/dev/shm`` entry under this arena's
        unique prefix is unlinked directly.  That makes ``close``
        idempotent across daemon restarts and robust to the
        crashed-manager case that used to leak segments the ledger no
        longer tracked.
        """
        if self._manager is None:
            return
        try:
            with trace("shm.teardown"):
                try:
                    unlinked = self.broker.unlink_all()
                except Exception as exc:  # qa502: allow — logged and counted, prefix sweep below still collects
                    # The ledger lives in the manager process; if that
                    # died (daemon restart, crashed run) the proxy call
                    # fails — fall through to the prefix sweep, which
                    # needs no cooperating process.
                    _LOG.warning(
                        "arena ledger unreachable at teardown, "
                        "sweeping by prefix: %r", exc,
                    )
                    global_registry().inc("shm.teardown_errors")
                    unlinked = 0
                for name in stray_segments(self._prefix):
                    if unlink_segment(name):
                        unlinked += 1
            _LOG.debug("arena teardown unlinked %d segment(s)", unlinked)
        finally:
            try:
                self._manager.shutdown()
            except (OSError, EOFError) as exc:
                # Manager process already gone; nothing to stop, but
                # record it — a dead manager mid-run is how segments
                # used to leak without a trace.
                _LOG.warning("arena manager shutdown failed: %r", exc)
                global_registry().inc("shm.teardown_errors")
            self._manager = None
