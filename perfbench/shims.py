"""Timing shims installed from outside the program, one layer at a time.

Each :class:`Target` names a public function (or method) of one layer.
:class:`ShimSet` replaces it, for the duration of a ``with`` block, by a
wrapper that records a span into a :class:`Recorder`:

* the span's **self time** is its duration minus the time its child
  spans (on the same thread) cover, computed from the nesting stack as
  the spans close;
* a call that re-enters a layer already open on the thread's stack runs
  straight through, so a layer's call count is its outermost calls;
* a module-level function is also rebound in every ``repro.*`` module
  that bound it with ``from X import f``, so those call sites are timed
  too.

Nothing under ``src/`` is modified: restoring the shim set puts every
original object back.  :func:`chrome_trace` exports recorded spans as
Chrome trace-event JSON (``ph: "X"``), which Perfetto opens directly.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LAYER_PACKAGES",
    "MAX_EVENTS",
    "Recorder",
    "ShimSet",
    "Target",
    "chrome_trace",
    "layer_targets",
    "layer_totals",
    "merge_stats",
]

#: Events kept for the trace export; aggregates are always complete.
MAX_EVENTS = 100_000

#: Packages imported before installing, so every ``from X import f``
#: binding already exists when the shims rebind it.
LAYER_PACKAGES = (
    "repro.core",
    "repro.experiments",
    "repro.gridfile",
    "repro.replication",
    "repro.schemes",
    "repro.serve",
    "repro.theory",
)

Hook = Callable[..., Any]


@dataclass(frozen=True)
class Target:
    """One public callable to time.

    ``path`` is ``"func"`` or ``"Class.method"`` inside ``module``;
    ``subclasses=True`` wraps ``method`` on ``Class`` and on every
    subclass that defines its own.  ``name`` maps the call arguments to
    the span name (default ``"<layer>.<attr>"``); ``pre`` runs before
    the call and its value reaches ``post``, which returns counts to add
    to the span name's aggregate.
    """

    layer: str
    module: str
    path: str
    subclasses: bool = False
    name: Optional[Callable[[tuple, dict], str]] = None
    pre: Optional[Hook] = None
    post: Optional[Hook] = None


class Recorder:
    """Spans and per-name aggregates for one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.pid = os.getpid()
        #: name -> {"layer", "calls", "total_s", "self_s", counters...}
        self.stats: Dict[str, Dict[str, Any]] = {}
        #: (name, layer, start_s, dur_s, tid, counts)
        self.events: List[Tuple[str, str, float, float, int, dict]] = []
        self.dropped = 0
        self._reset_requested = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Let shimmed calls on this thread run unrecorded."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def call(
        self,
        name: str,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        pre: Optional[Hook] = None,
        post: Optional[Hook] = None,
    ) -> Any:
        """Run ``fn`` inside a span (or straight through, see module doc)."""
        stack = self._stack()
        if getattr(self._local, "paused", False) or any(
            frame[1] == layer for frame in stack
        ):
            return fn(*args, **kwargs)
        state = pre(*args, **kwargs) if pre is not None else None
        frame = [name, layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][2] += duration
        counts = (
            post(result, state, *args, **kwargs) if post is not None else {}
        )
        self._record(name, layer, start, duration, duration - frame[2],
                     counts)
        return result

    def _record(
        self,
        name: str,
        layer: str,
        start: float,
        duration: float,
        self_time: float,
        counts: dict,
    ) -> None:
        with self._lock:
            if self._reset_requested:
                self._clear()
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = {
                    "layer": layer, "calls": 0, "total_s": 0.0,
                    "self_s": 0.0,
                }
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_time
            for key, value in counts.items():
                entry[key] = entry.get(key, 0) + value
            if len(self.events) < MAX_EVENTS:
                self.events.append(
                    (name, layer, start, duration, threading.get_ident(),
                     counts)
                )
            else:
                self.dropped += 1

    def reset(self) -> None:
        with self._lock:
            self._clear()

    def request_reset(self) -> None:
        """Reset before the next span records (safe in a signal handler)."""
        self._reset_requested = True

    def _clear(self) -> None:
        self._reset_requested = False
        self.stats.clear()
        self.events.clear()
        self.dropped = 0

    def to_json(self) -> Dict[str, Any]:
        """Aggregates and events, for a process that hands them over."""
        with self._lock:
            return {
                "pid": self.pid,
                "stats": {k: dict(v) for k, v in self.stats.items()},
                "events": [list(event) for event in self.events],
                "dropped": self.dropped,
            }


def merge_stats(*parts: Dict[str, Dict[str, Any]]) -> Dict[str, Dict]:
    """Sum per-name aggregates from several processes."""
    merged: Dict[str, Dict[str, Any]] = {}
    for stats in parts:
        for name, entry in stats.items():
            into = merged.setdefault(name, {"layer": entry["layer"]})
            for key, value in entry.items():
                if key != "layer":
                    into[key] = into.get(key, 0) + value
    return merged


def layer_totals(
    stats: Dict[str, Dict[str, Any]], layer: str, key: str
) -> float:
    """Sum ``key`` over every span name belonging to ``layer``."""
    return float(
        sum(e.get(key, 0) for e in stats.values() if e["layer"] == layer)
    )


class ShimSet:
    """Installs wrappers around targets; restores originals on exit."""

    def __init__(self, recorder: Recorder, targets: List[Target]):
        self.recorder = recorder
        self.targets = targets
        self._patches: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "ShimSet":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self) -> None:
        for package in LAYER_PACKAGES:
            _import_tree(package)
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.path.rpartition(".")
            if not owner_name:
                self._wrap_function(module, attr, target)
                continue
            owner = getattr(module, owner_name)
            owners = _with_subclasses(owner) if target.subclasses else [owner]
            for cls in owners:
                if attr in vars(cls):
                    self._wrap_attr(cls, attr, target)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn: Callable, attr: str, target: Target) -> Callable:
        recorder = self.recorder
        default_name = f"{target.layer}.{attr}"

        def shim(*args, **kwargs):
            name = (
                target.name(args, kwargs) if target.name else default_name
            )
            return recorder.call(
                name, target.layer, fn, args, kwargs,
                target.pre, target.post,
            )

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        shim.__name__ = getattr(fn, "__name__", attr)
        shim.__doc__ = getattr(fn, "__doc__", None)
        return shim

    def _wrap_attr(self, cls: type, attr: str, target: Target) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self._wrapper(raw.__func__, attr, target))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrapper(raw.__func__, attr, target))
        else:
            new = self._wrapper(raw, attr, target)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _wrap_function(self, module: Any, attr: str, target: Target) -> None:
        original = getattr(module, attr)
        new = self._wrapper(original, attr, target)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, new)


def _import_tree(package: str) -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


def _with_subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


# -- the layer table ----------------------------------------------------


def _runner_name(args: tuple, kwargs: dict) -> str:
    key = args[0] if args else kwargs.get("key")
    return f"runner.exp.{key}"


def _plan_counts(result, _state, *_args, **_kwargs) -> dict:
    return {"buckets": int(result.num_buckets)}


def _gridfile_before(self, records, *_args, **_kwargs) -> dict:
    return self.stats()


def _gridfile_counts(_result, before, self, records, *_a, **_k) -> dict:
    after = self.stats()
    return {
        "records": after["num_records"] - before["num_records"],
        "splits": after["num_splits"] - before["num_splits"],
        "migrated": (
            after["records_migrated"] - before["records_migrated"]
        ),
    }


def _query_counts(_result, _state, _engine, queries, *_a, **_k) -> dict:
    return {"queries": len(queries)}


def _sat_counts(result, _state=None, *_args, **_kwargs) -> dict:
    return {
        "bytes": int(result.nbytes()),
        "buckets": int(result.grid.num_buckets),
    }


def _chunked_counts(result, _state, _cls, scheme, grid, num_disks,
                    byte_budget=None, *_a, **_k) -> dict:
    rows = result.tile_rows(grid, num_disks, byte_budget)
    counts = _sat_counts(result)
    counts["tiles"] = math.ceil(grid.dims[0] / rows)
    return counts


def _frame_counts(result, _state, kind, *_args, **_kwargs) -> dict:
    # Kinds below 0x80 are requests (see repro.serve.protocol).
    if int(kind) < 0x80:
        return {"request_bytes": len(result), "requests": 1}
    return {}


def layer_targets() -> List[Target]:
    """Every public callable the traced run times, grouped by layer."""
    engine_methods = (
        "batch_disk_counts", "batch_response_times", "batch_optimal",
        "batch_deviations",
    )
    targets = [
        Target("runner", "repro.experiments.runner", "run_experiment",
               name=_runner_name),
        Target("runner", "repro.experiments.exp_growth", "run",
               name=lambda _a, _k: "runner.exp.X6"),
        Target("planner", "repro.replication.planner", "plan_query",
               post=_plan_counts),
        Target("replication", "repro.replication.allocation",
               "chained_replication"),
        Target("replication", "repro.replication.allocation",
               "orthogonal_replication"),
        Target("gridfile", "repro.gridfile.dynamic",
               "DynamicGridFile.insert_many",
               pre=_gridfile_before, post=_gridfile_counts),
        Target("alloc", "repro.schemes.base",
               "DeclusteringScheme.disk_array", subclasses=True),
        Target("alloc", "repro.schemes.base",
               "DeclusteringScheme.disk_array_block", subclasses=True),
        Target("engine", "repro.core.engine",
               "ResponseTimeEngine.sliding_response_times"),
        Target("sat", "repro.core.sat", "SummedAreaTable.build",
               post=_sat_counts),
        Target("sat", "repro.core.sat", "SummedAreaTable.build_chunked",
               post=_chunked_counts),
        Target("sat", "repro.core.sat", "SummedAreaTable.open_mmap"),
        Target("theory", "repro.theory.search", "impossibility_frontier"),
        Target("report", "repro.experiments.runner", "render_all"),
        Target("report", "repro.experiments.exp_growth", "render"),
        Target("protocol", "repro.serve.protocol", "encode_frame",
               post=_frame_counts),
        Target("protocol", "repro.serve.protocol", "parse_payload",
               name=lambda _a, _k: "protocol.decode"),
    ]
    targets.extend(
        Target("engine", "repro.core.engine",
               f"ResponseTimeEngine.{method}", post=_query_counts)
        for method in engine_methods
    )
    return targets


# -- export -------------------------------------------------------------


def chrome_trace(
    processes: List[Dict[str, Any]], labels: Dict[int, str]
) -> Dict[str, Any]:
    """Chrome trace-event JSON for :meth:`Recorder.to_json` dumps.

    All processes share the host's monotonic clock, so spans from the
    benchmark and its daemon line up on one timeline.
    """
    events: List[Dict[str, Any]] = []
    for dump in processes:
        pid = int(dump["pid"])
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": labels.get(pid, f"pid {pid}")},
        })
        for name, layer, start, duration, tid, counts in dump["events"]:
            events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": round(start * 1e6, 3), "dur": round(duration * 1e6, 3),
                "pid": pid, "tid": int(tid), "args": counts,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
