"""Unified observability: tracing, metrics, telemetry, EXPLAIN.

One instrumented source for every cost number the reproduction reports:

* :mod:`repro.obs.tracing` — thread-aware spans collected into a
  :class:`Trace`, exported as Chrome/Perfetto trace-event JSON;
* :mod:`repro.obs.metrics` — counters, gauges, and histograms with
  p50/p95/max summaries, bridged from ``QueryProfile``/``IOSnapshot``;
* :mod:`repro.obs.telemetry` — time-windowed instruments (rolling
  p50/p95/p99, rates), SLO tracking, and the :class:`TelemetryHub`
  activated per run;
* :mod:`repro.obs.events` — the typed operational event journal;
* :mod:`repro.obs.sampler` — /proc resource sampling for the
  coordinator and shard workers;
* :mod:`repro.obs.exporter` — OpenMetrics text export and the
  :class:`TelemetrySink` spool writer;
* :mod:`repro.obs.monitor` — the ``repro monitor`` dashboard over a
  spool directory;
* :mod:`repro.obs.profiling` — the shared :func:`timed_profile` helper
  that replaces per-method timing boilerplate;
* :mod:`repro.obs.explain` — per-query EXPLAIN reports;
* :mod:`repro.obs.logsetup` — handler configuration for entry points.

Instrumented code imports the package and calls ``obs.span(...)`` /
``obs.emit_event(...)`` / ``obs.observe_query(...)``; all are no-ops
until a trace (``obs.use_trace``) or a telemetry hub
(``obs.use_hub``) is activated.

This module is the *only* supported import surface: ``from repro
import obs`` (enforced by ruff's banned-api rule for ``core/`` and the
CLI).  The submodules are implementation detail and may be
reorganized freely.
"""

from repro.obs.events import EVENT_TYPES, Event, EventJournal
from repro.obs.explain import explain_profile, explain_workload_summary
from repro.obs.exporter import (
    TelemetrySink,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.logsetup import configure_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_from_sorted,
    record_answer,
    record_batch_stats,
    record_build,
    record_io,
    record_profile,
)
from repro.obs.monitor import render_dashboard, run_monitor
from repro.obs.profiling import timed_profile
from repro.obs.sampler import ResourceSampler, proc_available
from repro.obs.telemetry import (
    SloTracker,
    TelemetryHub,
    WindowedCounter,
    WindowedHistogram,
    emit_event,
    get_hub,
    observe_query,
    observe_search,
    set_hub,
    use_hub,
    watch_process,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    Trace,
    current_span,
    get_trace,
    io_span,
    record_span,
    set_trace,
    span,
    use_trace,
)

__all__ = [
    "EVENT_TYPES",
    "NULL_SPAN",
    "Counter",
    "Event",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ResourceSampler",
    "SloTracker",
    "Span",
    "TelemetryHub",
    "TelemetrySink",
    "Trace",
    "WindowedCounter",
    "WindowedHistogram",
    "configure_logging",
    "current_span",
    "emit_event",
    "explain_profile",
    "explain_workload_summary",
    "get_hub",
    "get_trace",
    "io_span",
    "observe_query",
    "observe_search",
    "parse_openmetrics",
    "percentile_from_sorted",
    "proc_available",
    "record_answer",
    "record_batch_stats",
    "record_build",
    "record_io",
    "record_profile",
    "record_span",
    "render_dashboard",
    "render_openmetrics",
    "run_monitor",
    "set_hub",
    "set_trace",
    "span",
    "timed_profile",
    "use_hub",
    "use_trace",
    "watch_process",
]
