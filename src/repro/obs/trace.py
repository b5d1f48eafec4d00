"""Span-based tracer: monotonic timing, nesting, JSONL export.

The tracer is the "where did the time go" half of :mod:`repro.obs`.  A
*span* is a named, timed region of code opened with the :func:`trace`
context manager::

    with trace("engine.batch_response_times", num_queries=len(queries)):
        ...

Spans nest — a span opened while another is active records the outer
span's id as its ``parent_id`` — and carry arbitrary JSON-serializable
``attrs``.  An *event* (:func:`trace_event`) is a zero-duration span for
point-in-time occurrences such as a runner retry.

Design constraints, in order:

1. **Zero overhead when disabled.**  Tracing is off by default; the
   disabled :func:`trace` call allocates nothing and returns one shared
   no-op context manager (asserted by the ``obs overhead`` bench gate in
   ``benchmarks/bench_kernels.py``).  Hot paths therefore instrument
   themselves unconditionally and pass no keyword attrs.
2. **One tracer per process.**  ``span_id``\\ s embed the producing
   pid, so traces exported by different processes never collide when
   read together.
3. **Stable schema.**  One JSON object per line; see
   :data:`SPAN_FIELDS`.  ``scripts/check_obs_output.py`` validates it in
   CI.

Timing uses ``time.perf_counter`` for durations (monotonic, immune to
wall-clock steps) and ``time.time`` for the ``wall_start`` stamp that
orders spans across processes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "SPAN_FIELDS",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "global_tracer",
    "trace",
    "trace_event",
]

#: Bumped when the JSONL line layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Every JSONL line carries exactly these keys.
SPAN_FIELDS = (
    "schema",
    "kind",
    "name",
    "span_id",
    "parent_id",
    "pid",
    "wall_start",
    "duration_s",
    "attrs",
)


class _NullSpan:
    """The shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """A live span: context manager that records itself on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "wall_start",
        "_start",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: Optional[str] = None
        self.wall_start = 0.0
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        stack = self._tracer._stack
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.wall_start = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        attrs = self.attrs
        if exc_type is not None:
            # An exception escaping the span is worth remembering even
            # though the exception itself keeps propagating.
            attrs = dict(attrs)
            attrs["error"] = repr(exc)
        self._tracer._record(
            kind="span",
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            wall_start=self.wall_start,
            duration_s=duration,
            attrs=attrs,
        )
        return False


class Tracer:
    """Collects spans in memory; disabled (and allocation-free) by default.

    Examples
    --------
    >>> tracer = Tracer()
    >>> tracer.enable()
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner"):
    ...         pass
    >>> [s["name"] for s in tracer.spans()]
    ['inner', 'outer']
    """

    def __init__(self) -> None:
        self._enabled = False
        self._spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._counter = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether spans are currently being recorded."""
        return self._enabled

    def enable(self) -> None:
        """Start recording spans (idempotent)."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording; already-collected spans are kept."""
        self._enabled = False

    def clear(self) -> None:
        """Drop every collected span and reset the nesting stack."""
        with self._lock:
            self._spans = []
            self._stack = []

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{os.getpid()}-{self._counter}"

    def _record(self, **fields: Any) -> None:
        fields["schema"] = TRACE_SCHEMA_VERSION
        fields.setdefault("pid", os.getpid())
        with self._lock:
            self._spans.append(fields)

    def span(self, name: str, **attrs: Any) -> Union[_NullSpan, _SpanHandle]:
        """A context manager timing the enclosed block (no-op if disabled)."""
        if not self._enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration point event (no-op if disabled)."""
        if not self._enabled:
            return
        stack = self._stack
        self._record(
            kind="event",
            name=name,
            span_id=self._next_id(),
            parent_id=stack[-1] if stack else None,
            wall_start=time.time(),
            duration_s=0.0,
            attrs=attrs,
        )

    def spans(self) -> List[Dict[str, Any]]:
        """A copy of every collected span, in recording order."""
        with self._lock:
            return [dict(span) for span in self._spans]

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Write all collected spans as JSONL, ordered by wall-clock start.

        Returns the number of lines written.  The file is rewritten whole
        — the tracer is the buffer, the file is the export.
        """
        spans = sorted(self.spans(), key=lambda s: s["wall_start"])
        lines = [
            json.dumps(
                {field: span.get(field) for field in SPAN_FIELDS},
                sort_keys=False,
            )
            for span in spans
        ]
        Path(path).write_text(
            "".join(line + "\n" for line in lines)
        )
        return len(lines)


_GLOBAL_TRACER = Tracer()


def global_tracer() -> Tracer:
    """The process-wide tracer used by all library instrumentation."""
    return _GLOBAL_TRACER


def trace(name: str, **attrs: Any) -> Union[_NullSpan, _SpanHandle]:
    """Open a span on the global tracer — the library's hot-path hook.

    When tracing is disabled (the default) this returns one shared no-op
    context manager without allocating; instrument freely.  Avoid keyword
    ``attrs`` on genuinely hot call sites: they cost a dict build even
    when disabled.
    """
    tracer = _GLOBAL_TRACER
    if not tracer._enabled:
        return _NULL_SPAN
    return _SpanHandle(tracer, name, attrs)


def trace_event(name: str, **attrs: Any) -> None:
    """Record a point event on the global tracer (no-op if disabled)."""
    _GLOBAL_TRACER.event(name, **attrs)
