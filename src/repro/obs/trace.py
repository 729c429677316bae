"""Nestable tracing spans with a thread-safe in-process collector.

A *span* measures one stage of the flow::

    with obs.span("sta", design=netlist.name):
        report = timing_report(netlist, library)

Spans record wall time (``perf_counter``), CPU time (``thread_time``),
the nesting path (``"sweep/evaluate_design/sta"``), and arbitrary
key=value attributes.  Nesting is tracked per thread; the collector
itself is shared and lock-protected, so concurrent harnesses can trace
into one :class:`Tracer`.

When the observability switch is off, :func:`span` returns a shared
no-op context manager -- no allocation, no clock reads -- so
instrumented call sites cost a function call and a branch.

The recorded events export as JSON Lines with Chrome-trace-compatible
fields (``name``/``ph``/``ts``/``dur``/``pid``/``tid``/``args``) via
:meth:`Tracer.export_jsonl` -- one event per line keeps the file
greppable and streamable -- or as a ready-to-load JSON array via
:meth:`Tracer.export_json` for direct Perfetto / ``chrome://tracing``
consumption.

**Trace IDs**: a long-running service runs many logical jobs through
one process-wide tracer, so each thread may carry a *trace id*
(:func:`set_trace_id`) that stamps every span it records.  The id
rides along when span batches ship across process boundaries (the
:mod:`repro.exec` engine forwards the submitting thread's id into its
workers), letting :meth:`Tracer.drain` stitch one job's spans --
across threads *and* worker processes -- into a single trace.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.runtime import STATE

# Wall-clock anchor: perf_counter gives monotonic durations, this pair
# maps them back onto the epoch for absolute ``ts`` fields.
_EPOCH0 = time.time()
_PERF0 = time.perf_counter()

# Per-thread trace id; workers inherit theirs from the submitting
# thread via the exec engine, not from this local.
_TRACE_LOCAL = threading.local()


def set_trace_id(trace_id: str | None) -> None:
    """Stamp (or clear, with ``None``) this thread's trace id."""
    _TRACE_LOCAL.trace_id = trace_id


def current_trace_id() -> str | None:
    """This thread's trace id, or ``None`` when unset."""
    return getattr(_TRACE_LOCAL, "trace_id", None)


def _create(path):
    """``open(path, "w")``, creating missing parent directories first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _epoch_us(perf_now: float) -> float:
    return (_EPOCH0 + (perf_now - _PERF0)) * 1e6


@dataclass
class SpanEvent:
    """One completed span.

    Attributes:
        name: Stage name (see ``docs/OBSERVABILITY.md`` conventions).
        path: Slash-joined nesting path, outermost first.
        depth: Nesting depth (0 = top-level stage).
        start_us: Absolute start time, microseconds since the epoch.
        wall_s: Wall-clock duration in seconds.
        cpu_s: CPU time consumed by the owning thread, in seconds.
        thread_id: ``threading.get_ident()`` of the recording thread.
        attrs: Key=value attributes given at creation or via ``note``.
        error: Exception type name if the span body raised, else None.
        pid: OS process id captured when the span closed (``0`` on
            legacy events; :meth:`to_chrome` falls back to the current
            process).  Captured at *record* time so spans shipped from
            pool workers keep their worker pid after crossing back.
        trace_id: The recording thread's trace id at close, or None.
    """

    name: str
    path: str
    depth: int
    start_us: float
    wall_s: float
    cpu_s: float
    thread_id: int
    attrs: dict = field(default_factory=dict)
    error: str | None = None
    pid: int = 0
    trace_id: str | None = None

    def to_chrome(self) -> dict:
        """Chrome-trace ``X`` (complete) event for this span."""
        args = dict(self.attrs)
        args["path"] = self.path
        args["cpu_s"] = round(self.cpu_s, 9)
        if self.error is not None:
            args["error"] = self.error
        if self.trace_id is not None:
            args["trace_id"] = self.trace_id
        return {
            "name": self.name,
            "ph": "X",
            "ts": round(self.start_us, 3),
            "dur": round(self.wall_s * 1e6, 3),
            "pid": self.pid or os.getpid(),
            "tid": self.thread_id,
            "cat": "repro",
            "args": args,
        }


@dataclass(frozen=True)
class SpanSummary:
    """Aggregate of every span sharing one name."""

    name: str
    count: int
    wall_s: float
    cpu_s: float


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def note(self, **attrs) -> None:
        """Ignore post-hoc attributes (mirror of :meth:`_Span.note`)."""


NULL_SPAN = _NullSpan()


class _Span:
    """Live span handed out by :meth:`Tracer.span` (context manager)."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_cpu_start", "_path", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def note(self, **attrs) -> None:
        """Attach attributes discovered while the span body runs."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        self._path = "/".join([*stack, self.name])
        stack.append(self.name)
        self._cpu_start = time.thread_time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        cpu_end = time.thread_time()
        stack = self._tracer._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        self._tracer._record(
            SpanEvent(
                name=self.name,
                path=self._path,
                depth=self._depth,
                start_us=_epoch_us(self._start),
                wall_s=end - self._start,
                cpu_s=cpu_end - self._cpu_start,
                thread_id=threading.get_ident(),
                attrs=self.attrs,
                error=None if exc_type is None else exc_type.__name__,
                pid=os.getpid(),
                trace_id=current_trace_id(),
            )
        )
        return False  # never swallow exceptions


class Tracer:
    """Thread-safe collector of :class:`SpanEvent` records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[SpanEvent] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    def span(self, name: str, **attrs) -> _Span:
        """A live span; prefer the module-level :func:`span` gate."""
        return _Span(self, name, attrs)

    def absorb(self, events: "list[SpanEvent]") -> None:
        """Append spans recorded elsewhere (e.g. shipped from workers).

        The caller is responsible for re-rooting ``path``/``depth``
        first if the spans should nest under the current position (see
        :meth:`current_path`); events are appended verbatim.
        """
        with self._lock:
            self._events.extend(events)

    def current_path(self) -> tuple[str, int]:
        """This thread's open-span nesting as ``(slash_path, depth)``.

        ``("", 0)`` outside any span.  Used to re-root worker span
        batches under the parent's live span before :meth:`absorb`.
        """
        stack = self._stack()
        return "/".join(stack), len(stack)

    # -- reading -----------------------------------------------------------

    def events(self) -> list[SpanEvent]:
        """Snapshot of all recorded spans, in completion order."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def drain(self, predicate) -> list[SpanEvent]:
        """Remove and return every span matching ``predicate``.

        The serve layer drains a finished job's spans (matched by
        trace id) out of the process-wide tracer into per-job storage,
        which both stitches the job's trace and keeps the long-running
        collector from growing without bound.
        """
        with self._lock:
            kept: list[SpanEvent] = []
            taken: list[SpanEvent] = []
            for event in self._events:
                (taken if predicate(event) else kept).append(event)
            self._events = kept
        return taken

    def summaries(self, depth: int | None = None) -> list[SpanSummary]:
        """Per-name aggregates (count, total wall, total CPU).

        Args:
            depth: Restrict to spans at one nesting depth (``0`` =
                top-level stages, the run-report default); ``None``
                aggregates every depth.
        """
        totals: dict[str, list[float]] = {}
        for event in self.events():
            if depth is not None and event.depth != depth:
                continue
            bucket = totals.setdefault(event.name, [0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += event.wall_s
            bucket[2] += event.cpu_s
        return [
            SpanSummary(name=name, count=int(c), wall_s=w, cpu_s=cpu)
            for name, (c, w, cpu) in sorted(
                totals.items(), key=lambda item: -item[1][1]
            )
        ]

    def call_counts(self) -> dict[str, int]:
        """Span invocation count per name (any depth)."""
        counts: dict[str, int] = {}
        for event in self.events():
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts

    # -- export ------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write one Chrome-trace event per line; returns event count."""
        events = self.events()
        with _create(path) as handle:
            for event in events:
                handle.write(json.dumps(event.to_chrome()) + "\n")
        return len(events)

    def export_json(self, path) -> int:
        """Write a JSON-array Chrome trace (loads directly in Perfetto)."""
        events = self.events()
        with _create(path) as handle:
            handle.write("[\n")
            for index, event in enumerate(events):
                comma = "," if index + 1 < len(events) else ""
                handle.write(json.dumps(event.to_chrome()) + comma + "\n")
            handle.write("]\n")
        return len(events)


#: The process-wide collector used by the module-level :func:`span`.
TRACER = Tracer()


def span(name: str, **attrs):
    """A recording span when tracing is enabled, else a shared no-op."""
    if not STATE.enabled:
        return NULL_SPAN
    return TRACER.span(name, **attrs)


def load_jsonl(path) -> list[dict]:
    """Parse a JSONL trace file back into chrome-event dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
