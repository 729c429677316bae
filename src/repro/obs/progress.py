"""Progress logging for long loops (sweeps, fault campaigns).

:func:`progress` wraps any iterable; while the obs switch is off it
yields straight through (one branch of overhead total), and while on
it logs every ``every`` items with throughput and -- when the total is
known -- an ETA::

    for config in progress(standard_sweep(), "sweep", every=8):
        evaluate_design(config, technology)

    [obs] sweep: 8/24 (33%) 2.1/s eta 7.6s

Lines go to stderr so piped table output stays clean.

**Heartbeat mode**: when the output stream is *not* a tty (CI logs,
piped output), item-count pacing alone can go silent for minutes --
slow items mean the ``every`` boundary never arrives.  A wall-clock
heartbeat therefore also flushes a status line whenever ``heartbeat``
seconds have passed since the last emission (default
:data:`HEARTBEAT_SECONDS` for non-ttys, off for interactive streams
where item pacing suffices; ``REPRO_PROGRESS_HEARTBEAT`` overrides the
interval, ``0`` disables).  Heartbeat lines carry the elapsed wall
clock so a stalled campaign is distinguishable from a slow one.

**Pluggable sink**: every emission builds one structured
:class:`ProgressEvent`; the default sink renders it with
:func:`format_progress_line` (byte-identical to the historical stderr
format) and prints it, while :func:`set_progress_sink` swaps in any
callable -- the serve job manager installs one that prints the same
line and folds each event into the running job with the event's trace
id (per-job progress/ETA), instead of scraping stderr.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from repro.obs.runtime import STATE
from repro.obs.trace import current_trace_id

T = TypeVar("T")

#: Default wall-clock flush interval for non-tty streams, seconds.
HEARTBEAT_SECONDS = 30.0


@dataclass(frozen=True)
class ProgressEvent:
    """One progress emission (item-paced, heartbeat, or final).

    Attributes:
        label: Loop name (the line prefix).
        done: Items completed so far.
        total: Known item count, or None.
        elapsed_s: Wall-clock seconds since the loop started.
        rate: Items per second (0.0 before any time elapsed).
        final: True for the closing line after the last item.
        heartbeat: True when emitted by the wall-clock heartbeat.
        trace_id: The emitting thread's trace id, or None.
    """

    label: str
    done: int
    total: int | None
    elapsed_s: float
    rate: float
    final: bool = False
    heartbeat: bool = False
    trace_id: str | None = None

    @property
    def percent(self) -> int | None:
        """Whole-number completion percent, or None without a total."""
        if not self.total:
            return None
        return 100 * self.done // self.total

    @property
    def eta_s(self) -> float | None:
        """Seconds remaining at the current rate, or None."""
        if self.final or not self.total or self.rate <= 0:
            return None
        return (self.total - self.done) / self.rate


def format_progress_line(event: ProgressEvent) -> str:
    """Render one event exactly as the historical stderr line."""
    parts = [f"[obs] {event.label}: {event.done}"]
    if event.total:
        parts[0] += f"/{event.total} ({100 * event.done // event.total}%)"
    parts.append(f"{event.rate:.1f}/s")
    if event.final:
        parts.append(f"in {event.elapsed_s:.2f}s")
    else:
        if event.total and event.rate > 0:
            parts.append(f"eta {(event.total - event.done) / event.rate:.1f}s")
        if event.heartbeat:
            parts.append(f"elapsed {event.elapsed_s:.0f}s")
    return " ".join(parts)


#: Installed sink, or None for the default stderr-line behavior.
_SINK: Callable[[ProgressEvent], None] | None = None


def set_progress_sink(sink: Callable[[ProgressEvent], None] | None) -> None:
    """Install a progress sink (``None`` restores the default lines)."""
    global _SINK
    _SINK = sink


def progress_sink() -> Callable[[ProgressEvent], None] | None:
    """The installed sink, or None under the default behavior."""
    return _SINK


def _resolve_heartbeat(heartbeat: float | None, stream) -> float:
    """Effective heartbeat interval (0 = disabled) for one stream.

    Explicit argument wins, then ``REPRO_PROGRESS_HEARTBEAT``, then
    :data:`HEARTBEAT_SECONDS` for non-tty streams / disabled for ttys
    (interactive terminals already see the item-paced lines scroll).
    """
    if heartbeat is not None:
        return max(0.0, heartbeat)
    env = os.environ.get("REPRO_PROGRESS_HEARTBEAT", "")
    if env:
        try:
            return max(0.0, float(env))
        except ValueError:
            pass
    try:
        interactive = stream.isatty()
    except (AttributeError, OSError):
        interactive = False
    return 0.0 if interactive else HEARTBEAT_SECONDS


def progress(
    iterable: Iterable[T],
    label: str,
    every: int = 10,
    total: int | None = None,
    stream=None,
    heartbeat: float | None = None,
) -> Iterator[T]:
    """Yield from ``iterable``, logging rate/ETA when tracing is on.

    Args:
        iterable: The items to pass through.
        label: Loop name used as the line prefix.
        every: Emit one line per this many items.
        total: Item count for percent/ETA; inferred via ``len`` when
            the iterable supports it.
        stream: Output stream (default ``sys.stderr``).
        heartbeat: Also emit when this many wall-clock seconds passed
            since the last line, regardless of item count.  ``None``
            auto-selects (30s for non-tty streams, off for ttys);
            ``0`` disables.
    """
    if not STATE.enabled:
        yield from iterable
        return
    if total is None:
        try:
            total = len(iterable)  # type: ignore[arg-type]
        except TypeError:
            total = None
    out = stream if stream is not None else sys.stderr
    beat = _resolve_heartbeat(heartbeat, out)
    start = time.perf_counter()
    last_emit = start
    done = 0
    for item in iterable:
        yield item
        done += 1
        if done == total:
            continue  # the final line below covers the last item
        now = time.perf_counter()
        if done % every == 0:
            _emit(out, label, done, total, now - start)
            last_emit = now
        elif beat and now - last_emit >= beat:
            _emit(out, label, done, total, now - start, heartbeat=True)
            last_emit = now
    if done:
        _emit(out, label, done, total, time.perf_counter() - start, final=True)


def _emit(out, label, done, total, elapsed, final=False, heartbeat=False) -> None:
    rate = done / elapsed if elapsed > 0 else 0.0
    event = ProgressEvent(
        label=label,
        done=done,
        total=total,
        elapsed_s=elapsed,
        rate=rate,
        final=final,
        heartbeat=heartbeat,
        trace_id=current_trace_id(),
    )
    sink = _SINK
    if sink is not None:
        sink(event)
    else:
        print(format_progress_line(event), file=out, flush=True)
