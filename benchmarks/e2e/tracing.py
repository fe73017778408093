"""Outside-in layer trace: wrappers around the engine's layer boundaries.

The engine is not edited.  For the traced pass only, the callables at
each layer boundary are swapped for wrappers that record a span (name,
start, end, parent, query id) into an in-memory list; the originals are
restored when the pass ends.  A layer's *self* time is its spans'
duration minus the part their child spans cover, so the self times of
everything under one public call add up to that call's duration.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: (module, class or None, attribute, span name).  Functions are patched
#: where they are *looked up* (the importing module), methods on their
#: class.  Both screens, kernels and result-set calls keep separate span
#: names so the batch pipeline's share can be told from the serial one.
TARGETS = (
    ("repro.storage.files", "SeriesFile", "read_range", "storage.read"),
    ("repro.storage.cache", "LeafCache", "get_or_load", "storage.cache"),
    ("repro.core.node", "Node", "lower_bound", "distance.lb_eapca"),
    ("repro.summarization.sax", "SaxSpace", "mindist", "summarization.mindist"),
    ("repro.core.query", None, "SeriesSketch", "summarization.sketch"),
    ("repro.core.query", None, "paa", "summarization.sketch"),
    ("repro.core.query", None, "early_abandon_squared", "distance.kernel"),
    ("repro.core.batch_query", None, "early_abandon_squared", "distance.kernel"),
    ("repro.core.batch_query", None, "early_abandon_squared_multi", "distance.kernel"),
    ("repro.core.prefilter", "SignatureArray", "screen", "prefilter.screen"),
    ("repro.core.prefilter", "SignatureArray", "screen_batch", "prefilter.screen_batch"),
    ("repro.core.results", "ResultSet", "update_batch_squared", "results.update"),
    ("repro.core.results", "ResultSet", "items", "results.items"),
    ("repro.core.index", None, "exact_knn", "query.exact_knn"),
    ("repro.core.index", None, "exact_knn_batch", "batch.exact_knn_batch"),
    ("repro.core.sharding", "ShardedIndex", "knn", "sharding.knn"),
)

NAME, START, END, PARENT, QUERY = range(5)


class Recorder:
    """Spans of one traced pass, as ``[name, start, end, parent, query]``.

    One open-span stack serves the whole pass: it runs with
    ``num_query_threads=1`` and, for the sharded workload, through the
    worker pool, so every wrapped call happens on the calling thread.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        #: Set by the harness before each public call.
        self.query = -1

    def wrap(self, name: str, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper


def _owner(module_name: str, class_name):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Swap every target for its recording wrapper; restore on exit."""
    originals = []
    try:
        for module_name, class_name, attribute, span_name in TARGETS:
            owner = _owner(module_name, class_name)
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def layer_table(spans: list) -> dict:
    """``{span name: (calls, self seconds)}`` of a span list."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    table: dict = {}
    for span, child_seconds in zip(spans, covered):
        calls, seconds = table.get(span[NAME], (0, 0.0))
        table[span[NAME]] = (
            calls + 1,
            seconds + span[END] - span[START] - child_seconds,
        )
    return table


def write_chrome_trace(spans: list, path: Path) -> None:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto).

    Times are microseconds from the first span; ``args.parent`` is the
    index of the causing event in ``traceEvents`` (-1: a public call)
    and ``args.query`` the query (or first query of the batch) served.
    """
    origin = spans[0][START] if spans else 0.0
    events = [
        {
            "name": span[NAME],
            "ph": "X",
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"parent": span[PARENT], "query": span[QUERY]},
        }
        for span in spans
    ]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def read_chrome_trace(path: Path) -> list:
    """The span list :func:`write_chrome_trace` wrote (times in seconds)."""
    events = json.loads(path.read_text())["traceEvents"]
    return [
        [
            event["name"],
            event["ts"] / 1e6,
            (event["ts"] + event["dur"]) / 1e6,
            event["args"]["parent"],
            event["args"]["query"],
        ]
        for event in events
    ]
