"""Pipeline-wide observability: tracing spans, metrics, run reports.

The flow behind every regenerated table -- elaboration, technology
mapping, STA, power, co-simulation, fault campaigns -- is instrumented
with this zero-dependency layer:

* :func:`span` -- nestable timing spans with a thread-safe collector
  and a Chrome-trace-compatible JSONL exporter (:mod:`repro.obs.trace`);
* :func:`counter` / :func:`gauge` / :func:`histogram` -- a metrics
  registry wired into the hot paths (:mod:`repro.obs.metrics`);
* :func:`progress` -- rate/ETA logging for long loops
  (:mod:`repro.obs.progress`);
* :func:`build_run_report` / :func:`write_run_report` -- structured
  ``RUN_REPORT.json`` emission (:mod:`repro.obs.report`);
* :class:`VcdWriter` -- IEEE-1364 value-change-dump waveform emission
  for the gate-level probes (:mod:`repro.obs.wave`);
* the cross-run telemetry ledger and regression sentinel
  (:mod:`repro.obs.history`) every report emission feeds, and the
  self-contained HTML dashboard over it (:mod:`repro.obs.dashboard`).

Everything is off by default and no-op-cheap when off: one branch per
event site (the benchmark suite asserts <2% overhead on the p1_8_2
co-simulation).  Switch it on with ``REPRO_TRACE=1``, with
``python -m repro --profile ...``, or by calling :func:`enable`.
See ``docs/OBSERVABILITY.md`` for conventions and the report schema.
"""

from __future__ import annotations

import os

from repro.obs.runtime import STATE, disable, enable, enabled
from repro.obs.trace import (
    NULL_SPAN,
    TRACER,
    SpanEvent,
    Tracer,
    current_trace_id,
    load_jsonl,
    set_trace_id,
    span,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    snapshot,
)
from repro.obs.progress import (
    ProgressEvent,
    format_progress_line,
    progress,
    progress_sink,
    set_progress_sink,
)
from repro.obs.report import (
    build_run_report,
    dump_report_json,
    environment_metadata,
    git_metadata,
    render_metrics,
    render_run_report,
    write_run_report,
)
from repro.obs import history
from repro.obs import promtext
from repro.obs import report
from repro.obs.wave import VcdVar, VcdWriter

__all__ = [
    "STATE",
    "enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "NULL_SPAN",
    "SpanEvent",
    "Tracer",
    "TRACER",
    "load_jsonl",
    "set_trace_id",
    "current_trace_id",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "progress",
    "ProgressEvent",
    "format_progress_line",
    "progress_sink",
    "set_progress_sink",
    "history",
    "promtext",
    "build_run_report",
    "dump_report_json",
    "write_run_report",
    "render_run_report",
    "render_metrics",
    "environment_metadata",
    "git_metadata",
    "export_trace_jsonl",
    "export_trace",
    "VcdVar",
    "VcdWriter",
]


def reset() -> None:
    """Clear recorded spans and zero all metrics (switch unchanged)."""
    TRACER.clear()
    REGISTRY.reset()


def export_trace_jsonl(path) -> int:
    """Write the collected spans as Chrome-trace JSONL; event count."""
    return TRACER.export_jsonl(path)


def export_trace(path) -> int:
    """Write the collected spans, format chosen by suffix.

    ``.json`` produces a valid JSON-array Chrome trace that loads
    directly in Perfetto / ``chrome://tracing``; any other suffix
    (conventionally ``.jsonl``) keeps the streaming one-event-per-line
    format.  Returns the event count either way.
    """
    if str(path).endswith(".json"):
        return TRACER.export_json(path)
    return TRACER.export_jsonl(path)


# Environment switch: REPRO_TRACE=1 (anything but "", "0") enables the
# collector for the whole process, no code changes needed.
if os.environ.get("REPRO_TRACE", "") not in ("", "0"):
    enable()
