"""Thread-safe job queue with dedup, trace stitching, and ledger feed.

One :class:`JobManager` owns the service's jobs:

* **Submission** (:meth:`JobManager.submit`) canonicalizes the
  parameters (:func:`repro.serve.drivers.canonical_params`), derives a
  content-addressed **dedup key** (:func:`job_key`), and — when an
  identical job is already queued, running, or completed — coalesces
  the request onto the existing job instead of executing twice
  (``serve.dedup_hits``).  A *failed* job never dedups: resubmission
  retries.
* **Execution**: ``workers`` daemon threads drain a FIFO queue.  Each
  job gets a **trace id** minted at submission; the worker thread
  stamps it (:func:`repro.obs.trace.set_trace_id`) so every span the
  driver records — including spans shipped back from
  :func:`repro.exec.parallel_map` pool workers, which forward the
  submitting thread's id — carries the job's id.
* **Completion**: the job's spans are *drained* out of the process-wide
  tracer (bounding its growth in a long-running server) into the job,
  a per-job run report is built over exactly those spans, and one
  compact ``serve`` ledger record is appended (series
  ``serve.<kind>.wall_s``, ``serve.queue_wait_s``,
  ``serve.jobs.completed``) so the cross-run sentinel gates service
  latency like any other pipeline cost.
* **Progress**: while the manager runs, :meth:`JobManager.tap` is the
  process's progress sink (:func:`repro.obs.progress.set_progress_sink`):
  it prints each ``[obs]`` line to stderr as the default sink does and
  folds the event into the running job with the same trace id, as that
  job's ``progress`` block (percent, rate, ETA).

Everything is stdlib; locking is one mutex around the job table plus
the queue's own synchronization.
"""

from __future__ import annotations

import hashlib
import json
import queue
import sys
import threading
import time
import uuid

from repro.obs import build_run_report
from repro.obs import history as _history
from repro.obs.metrics import (
    counter as _obs_counter,
    gauge as _obs_gauge,
    histogram as _obs_histogram,
)
from repro.obs.progress import (
    ProgressEvent,
    format_progress_line,
    progress_sink,
    set_progress_sink,
)
from repro.obs.trace import TRACER, Tracer, set_trace_id
from repro.serve import drivers

_SUBMITTED = _obs_counter("serve.jobs.submitted")
_COMPLETED = _obs_counter("serve.jobs.completed")
_FAILED = _obs_counter("serve.jobs.failed")
_DEDUP_HITS = _obs_counter("serve.dedup_hits")
_QUEUE_DEPTH = _obs_gauge("serve.queue_depth")
_QUEUE_WAIT = _obs_histogram("serve.queue_wait_s")
_JOB_WALL = _obs_histogram("serve.job.wall_s")

#: Finished jobs kept in the table before the oldest are evicted.
DEFAULT_MAX_JOBS = 256


def job_key(kind: str, params: dict) -> str:
    """Content address of one canonical (kind, params) request."""
    payload = json.dumps(
        {"kind": kind, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Job:
    """One submitted request and everything it produced."""

    def __init__(self, job_id: str, kind: str, params: dict, key: str) -> None:
        self.id = job_id
        self.kind = kind
        self.params = params
        self.key = key
        self.trace_id = uuid.uuid4().hex[:16]
        self.status = "queued"  # queued | running | done | failed
        self.created_ts = time.time()
        self.created_perf = time.perf_counter()
        self.started_ts: float | None = None
        self.finished_ts: float | None = None
        self.queue_wait_s: float | None = None
        self.wall_s: float | None = None
        self.result: dict | None = None
        self.error: str | None = None
        self.progress: dict | None = None
        self.dedup_hits = 0
        self.spans: list = []
        self.report: dict | None = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def to_dict(self, include_result: bool = False) -> dict:
        out = {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "key": self.key,
            "trace_id": self.trace_id,
            "status": self.status,
            "created_ts": round(self.created_ts, 3),
            "started_ts": None
            if self.started_ts is None
            else round(self.started_ts, 3),
            "finished_ts": None
            if self.finished_ts is None
            else round(self.finished_ts, 3),
            "queue_wait_s": None
            if self.queue_wait_s is None
            else round(self.queue_wait_s, 4),
            "wall_s": None if self.wall_s is None else round(self.wall_s, 4),
            "dedup_hits": self.dedup_hits,
            "progress": self.progress,
            "error": self.error,
            "span_count": len(self.spans),
        }
        if include_result:
            out["result"] = self.result
        return out


class JobManager:
    """FIFO job queue over ``workers`` daemon threads."""

    def __init__(
        self, workers: int = 1, max_jobs: int = DEFAULT_MAX_JOBS
    ) -> None:
        self.workers = max(1, int(workers))
        self.max_jobs = max(1, int(max_jobs))
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}  # insertion-ordered
        self._by_key: dict[str, Job] = {}
        # ``None`` is the wake-up sentinel :meth:`stop` puts per worker.
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._stop = threading.Event()
        self._draining = False
        self._seq = 0
        self._threads: list[threading.Thread] = []
        self._idle = threading.Condition(self._lock)
        self._running = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the workers and install :meth:`tap` as progress sink."""
        if self._threads:
            return
        set_progress_sink(self.tap)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 10.0) -> bool:
        """Refuse new work, wait for in-flight jobs; True when empty.

        Jobs still queued or running after ``timeout`` seconds are
        abandoned (their daemon threads die with the process) — the
        caller reports the drain as incomplete, but shutdown proceeds.
        """
        self._draining = True
        deadline = time.perf_counter() + max(0.0, timeout)
        with self._idle:
            while any(not job.finished for job in self._jobs.values()):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._idle.wait(min(0.2, remaining))
        return True

    def stop(self) -> None:
        """Wake and join the workers; remove :meth:`tap` as progress sink."""
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = []
        if progress_sink() == self.tap:
            set_progress_sink(None)

    # -- submission --------------------------------------------------------

    def submit(self, kind: str, params: dict | None = None) -> tuple[Job, bool]:
        """Queue one job; returns ``(job, deduped)``.

        Raises :class:`repro.errors.ConfigError` for unknown kinds or
        parameters, and ``RuntimeError`` while the manager drains.
        """
        canonical = drivers.canonical_params(kind, params)
        key = job_key(kind, canonical)
        with self._lock:
            if self._draining:
                raise RuntimeError("service is draining; not accepting jobs")
            existing = self._by_key.get(key)
            if existing is not None and existing.status != "failed":
                existing.dedup_hits += 1
            else:
                existing = None
                self._seq += 1
                job = Job(f"job-{self._seq:04d}", kind, canonical, key)
                self._jobs[job.id] = job
                self._by_key[key] = job
                self._evict_locked()
        if existing is not None:
            _DEDUP_HITS.inc()
            return existing, True
        _SUBMITTED.inc()
        self._queue.put(job)
        _QUEUE_DEPTH.set(self._queue.qsize())
        return job, False

    def _evict_locked(self) -> None:
        """Drop the oldest *finished* jobs beyond ``max_jobs``."""
        excess = len(self._jobs) - self.max_jobs
        if excess <= 0:
            return
        for job_id in list(self._jobs):
            if excess <= 0:
                break
            job = self._jobs[job_id]
            if not job.finished:
                continue
            del self._jobs[job_id]
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]
            excess -= 1

    # -- lookup ------------------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def queue_position(self, job: Job) -> int | None:
        """0-based position among queued jobs, or None once started."""
        if job.status != "queued":
            return None
        with self._lock:
            ahead = 0
            for other in self._jobs.values():
                if other is job:
                    break
                if other.status == "queued":
                    ahead += 1
            return ahead

    def stats(self) -> dict:
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "jobs": len(self._jobs),
                "by_status": by_status,
                "queue_depth": self._queue.qsize(),
                "running": self._running,
                "workers": self.workers,
                "draining": self._draining,
            }

    # -- progress sink -----------------------------------------------------

    def tap(self, event: ProgressEvent) -> None:
        """Print the ``[obs]`` line; fold the event into its running job."""
        print(format_progress_line(event), file=sys.stderr, flush=True)
        if not event.trace_id:
            return
        eta_s = event.eta_s
        with self._lock:
            for job in self._jobs.values():
                if job.trace_id == event.trace_id and job.status == "running":
                    job.progress = {
                        "label": event.label,
                        "done": event.done,
                        "total": event.total,
                        "percent": event.percent,
                        "rate": round(event.rate, 3),
                        "eta_s": None if eta_s is None else round(eta_s, 1),
                    }
                    break

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None or self._stop.is_set():
                return
            with self._lock:
                self._running += 1
            try:
                self._run_job(job)
            finally:
                with self._idle:
                    self._running -= 1
                    self._idle.notify_all()
                _QUEUE_DEPTH.set(self._queue.qsize())

    def _run_job(self, job: Job) -> None:
        job.started_ts = time.time()
        job.queue_wait_s = time.perf_counter() - job.created_perf
        job.status = "running"
        _QUEUE_DEPTH.set(self._queue.qsize())
        _QUEUE_WAIT.observe(job.queue_wait_s)
        set_trace_id(job.trace_id)
        started = time.perf_counter()
        try:
            job.result = drivers.run_job(job.kind, job.params)
            outcome = "done"
        except Exception as exc:  # driver errors become job state
            job.error = f"{type(exc).__name__}: {exc}"
            outcome = "failed"
        finally:
            set_trace_id(None)
        job.wall_s = time.perf_counter() - started
        job.finished_ts = time.time()
        job.spans = TRACER.drain(lambda e: e.trace_id == job.trace_id)
        if outcome == "done":
            _COMPLETED.inc()
            _JOB_WALL.observe(job.wall_s)
        else:
            _FAILED.inc()
        self._finalize(job, outcome)
        # The status flip is the LAST mutation: any reader that observes
        # a finished status also sees the spans/report already attached.
        job.status = outcome

    def _finalize(self, job: Job, outcome: str) -> None:
        """Per-job run report + the ``serve`` ledger record."""
        stitched = Tracer()
        stitched.absorb(job.spans)
        snapshot = job.to_dict()
        snapshot["status"] = outcome
        job.report = build_run_report(
            ["serve", job.kind],
            job.wall_s or 0.0,
            tracer=stitched,
            extra={"job": snapshot},
        )
        if outcome != "done":
            return
        _history.append_record(
            _history.build_record(
                "serve",
                ["serve", job.kind],
                {
                    f"serve.{job.kind}.wall_s": round(job.wall_s, 6),
                    "serve.queue_wait_s": round(job.queue_wait_s, 6),
                    "serve.jobs.completed": _COMPLETED.value,
                },
            )
        )
