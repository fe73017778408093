"""Thread-aware tracing: spans, traces, and Chrome trace-event export.

The paper's evaluation is a cost breakdown — Table 4 splits index
construction into its two phases, Figures 10-11 put pruning ratios and
"% of data accessed" next to every timing.  This module provides the
substrate those numbers come from: a :class:`Trace` collects
:class:`Span` records (name, thread, start, duration, parent,
key/value attributes) from every phase of construction and query
answering, and exports them in the Chrome trace-event format that
``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ render
as a per-thread timeline.

Tracing is *opt-in and free when off*: hot paths call the module-level
:func:`span` helper, which returns a shared no-op object unless a trace
was activated with :func:`use_trace` (or :func:`set_trace`).  The
enabled path appends one record per span under the trace's lock;
nothing is instrumented per-series.

Cross-thread attribution: a span started on a worker thread would see
an empty ambient stack, so code that fans out captures
:func:`current_span` *before* spawning and passes it as the explicit
``parent`` — the worker spans then nest under the phase that launched
them regardless of which thread they ran on.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

__all__ = [
    "Span",
    "Trace",
    "current_span",
    "get_trace",
    "io_span",
    "record_span",
    "set_trace",
    "span",
    "use_trace",
]

#: Process id reported in exported trace events.  Worker-process spans
#: absorbed into a parent trace keep this pid but get prefixed thread
#: names, so one timeline shows all processes.
_TRACE_PID = 1

_tls = threading.local()

#: Live traces, so locks can be re-initialized in forked children.
_LIVE_TRACES: "weakref.WeakSet[Trace]" = weakref.WeakSet()


def _reinit_after_fork() -> None:
    """Make a freshly forked child safe to trace in.

    The child inherits (a) possibly-held trace locks from other parent
    threads and (b) the forking thread's ambient span stack — both are
    stale.  Locks are replaced, the stack is cleared, and the active
    trace is switched off: a worker that wants tracing creates its own
    :class:`Trace` and ships its spans home via :meth:`Trace.export_spans`.
    """
    for trace in list(_LIVE_TRACES):
        trace._lock = threading.Lock()
    _tls.stack = []
    set_trace(None)


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix only
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _span_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _jsonable(value: Any) -> Any:
    """Coerce span attribute values into JSON-friendly scalars."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
        pass
    return str(value)


class Span:
    """One timed region: a context manager recording into its trace.

    Instances come from :meth:`Trace.span` (or the module-level
    :func:`span` helper) and record themselves when the ``with`` block
    exits.  ``set``/``set_attrs`` attach key/value attributes at any
    point inside the block; they end up in the exported event's
    ``args``.
    """

    __slots__ = (
        "trace",
        "name",
        "span_id",
        "parent_id",
        "thread_id",
        "thread_name",
        "start",
        "duration",
        "attributes",
        "_explicit_parent",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        parent: Optional["Span"] = None,
        **attributes: Any,
    ) -> None:
        self.trace = trace
        self.name = name
        self.span_id = trace._next_id()
        self._explicit_parent = parent
        self.parent_id: Optional[int] = None
        self.thread_id = 0
        self.thread_name = ""
        self.start = 0.0
        self.duration = 0.0
        self.attributes: dict[str, Any] = dict(attributes)

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attrs(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        thread = threading.current_thread()
        self.thread_id = self.trace._thread_index(thread)
        self.thread_name = thread.name
        parent = self._explicit_parent
        if isinstance(parent, Span):
            self.parent_id = parent.span_id
        else:
            stack = _span_stack()
            if stack and stack[-1].trace is self.trace:
                self.parent_id = stack[-1].span_id
        _span_stack().append(self)
        self.start = time.perf_counter() - self.trace.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.trace.epoch - self.start
        stack = _span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unbalanced exit (generator teardown etc.)
            stack.remove(self)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.trace._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, tid={self.thread_id}, "
            f"start={self.start * 1e3:.3f}ms, "
            f"dur={self.duration * 1e3:.3f}ms)"
        )


class _NullSpan:
    """The shared do-nothing span returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def set_attrs(self, **attributes: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Trace:
    """A lock-protected collection of finished spans from many threads.

    Thread ids are remapped to small consecutive integers (in order of
    first appearance) so exported timelines stay readable; the original
    thread names are preserved as Chrome ``thread_name`` metadata.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        #: thread ident (or synthetic key) -> (compact tid, thread name)
        self._threads: dict = {}
        _LIVE_TRACES.add(self)

    # -- recording ----------------------------------------------------------

    def _next_id(self) -> int:
        return next(self._ids)

    def _thread_index(self, thread: threading.Thread) -> int:
        with self._lock:
            entry = self._threads.get(thread.ident)
            if entry is None:
                entry = (len(self._threads) + 1, thread.name)
                self._threads[thread.ident] = entry
            return entry[0]

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def span(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> Span:
        """Create a span; enter it with ``with`` to time a region."""
        return Span(self, name, parent=parent, **attributes)

    # -- inspection ---------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def children_of(self, parent: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == parent.span_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- cross-process attribution ------------------------------------------

    def export_spans(self) -> list[dict]:
        """Picklable span records for shipping across a process boundary.

        Start times are exported on the absolute ``time.perf_counter``
        axis (CLOCK_MONOTONIC on Linux, shared by every process of one
        boot), so a parent trace can re-base them onto its own epoch.
        """
        with self._lock:
            spans = list(self._spans)
        return [
            {
                "name": s.name,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "thread_name": s.thread_name,
                "start_abs": self.epoch + s.start,
                "duration": s.duration,
                "attributes": dict(s.attributes),
            }
            for s in spans
        ]

    def absorb_spans(
        self,
        records: list[dict],
        thread_prefix: str = "",
        parent: Optional[Span] = None,
    ) -> None:
        """Merge a worker process's :meth:`export_spans` into this trace.

        Span ids are remapped into this trace's id space (parent links
        inside the batch are preserved); top-level worker spans hang
        under ``parent`` when given.  Worker threads appear as synthetic
        timeline rows named ``<thread_prefix><thread_name>``, which is
        the cross-process attribution the per-shard build/query spans
        rely on.  Clock skew (a non-shared monotonic clock under spawn
        on some platforms) degrades to clamped start times, never an
        error.
        """
        id_map: dict[int, int] = {}
        absorbed: list[tuple[Span, Optional[int]]] = []
        for record in records:
            s = Span(self, record["name"])
            id_map[record["span_id"]] = s.span_id
            s.start = max(record["start_abs"] - self.epoch, 0.0)
            s.duration = record["duration"]
            s.attributes = dict(record["attributes"])
            thread_name = f"{thread_prefix}{record['thread_name']}"
            with self._lock:
                entry = self._threads.get(thread_name)
                if entry is None:
                    entry = (len(self._threads) + 1, thread_name)
                    self._threads[thread_name] = entry
            s.thread_id = entry[0]
            s.thread_name = thread_name
            absorbed.append((s, record["parent_id"]))
        for s, original_parent in absorbed:
            if original_parent in id_map:
                s.parent_id = id_map[original_parent]
            elif parent is not None:
                s.parent_id = parent.span_id
            self._record(s)

    # -- export -------------------------------------------------------------

    def to_chrome_events(self) -> list[dict]:
        """Trace-event dicts: thread metadata plus one ``X`` per span."""
        with self._lock:
            spans = list(self._spans)
            threads = sorted(self._threads.values())
        events: list[dict] = [
            {
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
            for tid, name in threads
        ]
        for s in spans:
            args = {k: _jsonable(v) for k, v in s.attributes.items()}
            args["span_id"] = s.span_id
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            events.append(
                {
                    "ph": "X",
                    "pid": _TRACE_PID,
                    "tid": s.thread_id,
                    "name": s.name,
                    "ts": round(s.start * 1e6, 3),
                    "dur": round(s.duration * 1e6, 3),
                    "args": args,
                }
            )
        return events

    def to_chrome_json(self) -> str:
        """The Chrome trace-event file format (JSON object form)."""
        return json.dumps(
            {
                "traceEvents": self.to_chrome_events(),
                "displayTimeUnit": "ms",
                "otherData": {"trace_name": self.name},
            }
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the Chrome-format trace to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_chrome_json())
        return path


# ---------------------------------------------------------------------------
# The ambient active trace
# ---------------------------------------------------------------------------

_active: Optional[Trace] = None


def get_trace() -> Optional[Trace]:
    """The currently active trace, or None when tracing is off."""
    return _active


def set_trace(trace: Optional[Trace]) -> None:
    """Activate ``trace`` process-wide (None turns tracing off)."""
    global _active
    _active = trace


@contextmanager
def use_trace(trace: Trace) -> Iterator[Trace]:
    """Activate ``trace`` for the duration of a ``with`` block."""
    global _active
    previous = _active
    _active = trace
    try:
        yield trace
    finally:
        _active = previous


def span(name: str, parent: Optional[Span] = None, **attributes: Any):
    """A span on the active trace — or a shared no-op when tracing is off.

    This is the call instrumented code uses; the disabled path is one
    global read and returns a singleton, so leaving instrumentation in
    hot(ish) paths costs nothing measurable.
    """
    trace = _active
    if trace is None:
        return NULL_SPAN
    return trace.span(name, parent=parent, **attributes)


def record_span(name: str, started: float, ended: float, parent=None, **attributes: Any):
    """:func:`span` for a region already timed by ``time.perf_counter()``
    readings — for code that cannot hold a span open over it, such as a
    generator across its yields (the span would sit on the consumer's
    stack).  Without ``parent`` it nests under the innermost open span."""
    recorded = span(name, parent=parent, **attributes)
    with recorded:
        pass
    if recorded is not NULL_SPAN:
        recorded.start, recorded.duration = started - recorded.trace.epoch, ended - started
    return recorded


def current_span() -> Optional[Span]:
    """The innermost open span of this thread on the active trace.

    Returns None when tracing is off — safe to pass straight into
    ``span(..., parent=...)``.
    """
    trace = _active
    if trace is None:
        return None
    stack = getattr(_tls, "stack", None)
    if stack:
        top = stack[-1]
        if top.trace is trace:
            return top
    return None


@contextmanager
def io_span(name: str, stats, parent: Optional[Span] = None, **attributes):
    """A span whose attributes carry the IOStats delta of its body.

    ``stats`` is an :class:`repro.storage.iostats.IOStats` (or None);
    the snapshot delta across the block is attached as ``read_calls``,
    ``random_seeks``, ``bytes_read`` etc.  When tracing is off the
    snapshots are skipped entirely.
    """
    if _active is None:
        yield NULL_SPAN
        return
    before = stats.snapshot() if stats is not None else None
    with span(name, parent=parent, **attributes) as s:
        try:
            yield s
        finally:
            if before is not None:
                delta = stats.snapshot() - before
                s.set_attrs(
                    read_calls=delta.read_calls,
                    write_calls=delta.write_calls,
                    random_seeks=delta.random_seeks,
                    sequential_reads=delta.sequential_reads,
                    bytes_read=delta.bytes_read,
                    bytes_written=delta.bytes_written,
                )
