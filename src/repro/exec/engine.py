"""Process-pool execution engine for the pipeline's fan-out layers.

The paper's headline results are all embarrassingly parallel -- the
Figure 7 sweep is 24 independent (config, technology) evaluations, the
Section 8 grid is ~76 independent system evaluations, and fault
campaigns parallelize across fault sites -- so this module provides
one primitive, :func:`parallel_map`, that every fan-out layer shares:

* **stdlib only** -- ``concurrent.futures.ProcessPoolExecutor`` over
  the ``fork`` start method where available (workers inherit warm
  in-memory memos for free), ``spawn`` otherwise;
* **chunked scheduling** -- items are grouped into chunks sized for
  ~2 waves per worker, amortizing task pickling and per-chunk obs
  shipping without starving the pool on skewed item costs;
* **warm workers** -- callers may pass a ``warm=`` initializer that
  runs once per worker before its first chunk (e.g. pre-building a
  campaign context and loading compiled kernels from the persistent
  artifact cache), so per-worker setup cost is paid off the
  critical path of the first dispatched chunk;
* **deterministic reassembly** -- results come back in *submission*
  order regardless of completion order, so a parallel run is
  bit-exact against the serial run by construction;
* **observability shipping** -- when the obs switch is on, each worker
  records spans/metrics locally and ships them back with its chunk;
  the parent re-roots the spans under its live span and folds the
  metrics into the process registry, keeping ``RUN_REPORT.json`` and
  ``--profile`` truthful for parallel runs;
* **per-worker telemetry** -- each chunk additionally ships its
  compute time, queue-wait time, and worker pid; the parent folds them
  into ``exec.worker.chunk_compute_s`` / ``exec.worker.chunk_wait_s``
  histograms and, once the pool drains, derives fan-out health gauges:
  ``exec.worker.utilization`` (summed busy time over ``workers x pool
  wall``) and ``exec.worker.straggler_ratio`` (busiest worker over the
  mean -- 1.0 is a perfectly balanced pool), so the history ledger and
  dashboard can trend scheduling quality across runs.

Worker count resolution (:func:`resolve_jobs`): an explicit ``jobs=``
argument wins, then :func:`set_default_jobs` (the CLI's ``--jobs N``),
then the ``REPRO_JOBS`` environment variable, then 1 (serial).  Inside
a worker process everything resolves to 1 so nested fan-out layers
(e.g. a sweep whose evaluation runs a fault campaign) never spawn
grandchildren.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigError
from repro.obs.metrics import (
    REGISTRY,
    counter as _obs_counter,
    gauge as _obs_gauge,
    histogram as _obs_histogram,
)
from repro.obs import live as _live
from repro.obs.progress import progress, set_progress_sink
from repro.obs.runtime import STATE
from repro.obs.trace import TRACER, current_trace_id, set_trace_id, span

_PARALLEL_RUNS = _obs_counter("exec.parallel_runs")
_TASKS = _obs_counter("exec.tasks_executed")
_CHUNKS = _obs_counter("exec.chunks_dispatched")
_JOBS_GAUGE = _obs_gauge("exec.jobs")
_CHUNK_COMPUTE = _obs_histogram("exec.worker.chunk_compute_s")
_CHUNK_WAIT = _obs_histogram("exec.worker.chunk_wait_s")
_UTILIZATION = _obs_gauge("exec.worker.utilization")
_STRAGGLER = _obs_gauge("exec.worker.straggler_ratio")

#: Target dispatch waves per worker when auto-sizing chunks.  Two
#: waves balance pickling/obs-shipping overhead (fewer, larger chunks)
#: against tail latency on skewed item costs (more, smaller chunks).
_WAVES_PER_WORKER = 2

# Session-wide default set by the CLI's --jobs flag (None = unset).
_DEFAULT_JOBS: int | None = None

# True inside pool workers: nested parallel_map calls degrade to serial.
_IN_WORKER = False


def set_default_jobs(jobs: int | None) -> None:
    """Set the session-wide default worker count (``--jobs N``).

    ``None`` clears the override, falling back to ``REPRO_JOBS`` / 1.
    """
    global _DEFAULT_JOBS
    if jobs is not None and int(jobs) < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = None if jobs is None else int(jobs)


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit > default > ``REPRO_JOBS`` > 1.

    Always 1 inside a pool worker (no nested process pools).  Raises
    :class:`ConfigError` for a count below 1, from any source, and for a
    ``REPRO_JOBS`` that is not an integer.
    """
    if _IN_WORKER:
        return 1
    if jobs is not None:
        if int(jobs) < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        return int(jobs)
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    env = os.environ.get("REPRO_JOBS", "")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"REPRO_JOBS must be an integer, got {env!r}")
        if value < 1:
            raise ConfigError(f"REPRO_JOBS must be >= 1, got {value}")
        return value
    return 1


def _mp_context():
    """``fork`` when the platform offers it (warm memo inheritance)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_init(obs_enabled: bool, warm: Callable | None = None) -> None:
    """Pool initializer: mark worker context, start obs from a clean slate.

    ``warm`` (when given) runs after the obs reset so any setup work it
    does -- elaborating a netlist, pulling compiled kernels from the
    persistent artifact cache -- is accounted to the worker, not to the
    first chunk's results.  Warm-up failures are deliberately
    swallowed: the real chunk will hit the same error in a context
    that can report it per-item.
    """
    global _IN_WORKER
    _IN_WORKER = True
    STATE.enabled = obs_enabled
    TRACER.clear()
    REGISTRY.reset()
    # Fork-inherited serve state must not leak into workers: a copied
    # live bus would publish into dead subscriber queues, a copied
    # progress sink would call into the parent's job table, and a
    # copied thread trace-id would stamp unrelated chunks.
    _live.deactivate()
    set_progress_sink(None)
    set_trace_id(None)
    if warm is not None:
        try:
            warm()
        except Exception:
            pass


def _run_chunk(
    fn: Callable,
    chunk: list,
    submitted_at: float,
    trace_id: str | None = None,
) -> tuple:
    """Worker: apply ``fn`` to one chunk, bundling obs data as a delta.

    The tracer/registry are cleared after export so a worker that
    serves several chunks ships disjoint deltas (no double counting).

    ``submitted_at`` is the parent's ``perf_counter`` at submission;
    ``perf_counter`` reads the system-wide monotonic clock on the
    platforms we run on, so ``start - submitted_at`` is the chunk's
    queue wait (clamped at 0 in case a platform's clock is per
    process).  Compute and wait ship back as the last tuple element so
    the parent can attribute busy time per worker pid.

    ``trace_id`` is the *submitting thread's* trace id, forwarded so
    every span this chunk records carries the job's id across the
    process boundary (see :func:`repro.obs.trace.set_trace_id`).
    """
    set_trace_id(trace_id)
    start = time.perf_counter()
    wait_s = max(0.0, start - submitted_at)
    results = [fn(item) for item in chunk]
    compute_s = time.perf_counter() - start
    if STATE.enabled:
        spans = TRACER.events()
        metrics = REGISTRY.export_state()
        TRACER.clear()
        REGISTRY.reset()
    else:
        spans, metrics = [], {}
    return results, spans, metrics, (os.getpid(), compute_s, wait_s)


def _absorb_worker_obs(spans: list, metrics: dict) -> None:
    """Fold one worker delta into the parent collector/registry.

    Worker spans are re-rooted under the parent's live span path so a
    run report's depth-0 "stages" section is not polluted by worker
    internals.
    """
    if spans:
        prefix, offset = TRACER.current_path()
        if prefix:
            for event in spans:
                event.depth += offset
                event.path = f"{prefix}/{event.path}"
        TRACER.absorb(spans)
    if metrics:
        REGISTRY.merge_state(metrics)


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: int | None = None,
    chunk_size: int | None = None,
    label: str = "parallel_map",
    warm: Callable | None = None,
) -> list:
    """Apply ``fn`` to every item, fanning out across worker processes.

    Results are returned in input order and are bit-exact against
    ``[fn(item) for item in items]`` -- parallelism never reorders or
    perturbs them.  With ``jobs`` resolving to 1 (the default) no pool
    is created and the map runs inline, so call sites need no serial
    special case.

    Args:
        fn: A picklable (module-level) callable of one item.  Worker
            exceptions propagate to the caller; wrap per-item recovery
            inside ``fn`` when a failed item should not abort the run.
        items: The work list (materialized once; order defines output
            order).
        jobs: Worker processes; ``None`` defers to
            :func:`resolve_jobs`.
        chunk_size: Items per dispatched task; ``None`` auto-sizes to
            ~2 waves per worker.
        label: Span/progress name for observability.
        warm: Optional zero-argument callable run once per worker at
            startup (must be picklable under ``spawn``; a
            module-level :func:`functools.partial` works everywhere).
            Ignored for serial runs -- inline execution shares the
            caller's already-warm memos.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [
            fn(item)
            for item in progress(items, label, every=max(8, len(items) // 4))
        ]
    if chunk_size is None:
        chunk_size = max(1, -(-len(items) // (jobs * _WAVES_PER_WORKER)))
    chunks = [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]
    workers = min(jobs, len(chunks))
    with span(label, jobs=workers, tasks=len(items), chunks=len(chunks)):
        if STATE.enabled:
            _PARALLEL_RUNS.value += 1
            _TASKS.value += len(items)
            _CHUNKS.value += len(chunks)
            _JOBS_GAUGE.value = workers
        results: list = []
        busy_by_pid: dict[int, float] = {}
        pool_start = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_worker_init,
            initargs=(STATE.enabled, warm),
        ) as pool:
            futures = [
                pool.submit(
                    _run_chunk,
                    fn,
                    chunk,
                    time.perf_counter(),
                    current_trace_id(),
                )
                for chunk in chunks
            ]
            # Submission order, not completion order: determinism.
            for future in progress(
                futures, label, every=max(1, len(futures) // 8)
            ):
                chunk_results, spans, metrics, timing = future.result()
                results.extend(chunk_results)
                _absorb_worker_obs(spans, metrics)
                if STATE.enabled:
                    pid, compute_s, wait_s = timing
                    busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + compute_s
                    _CHUNK_COMPUTE.observe(compute_s)
                    _CHUNK_WAIT.observe(wait_s)
        if STATE.enabled and busy_by_pid:
            pool_wall = time.perf_counter() - pool_start
            total_busy = sum(busy_by_pid.values())
            if pool_wall > 0:
                _UTILIZATION.value = round(
                    total_busy / (workers * pool_wall), 4
                )
            mean_busy = total_busy / len(busy_by_pid)
            if mean_busy > 0:
                _STRAGGLER.value = round(
                    max(busy_by_pid.values()) / mean_busy, 4
                )
    return results


def map_in_chunks(
    fn: Callable, items: Sequence, chunk_size: int, **kwargs
) -> list:
    """:func:`parallel_map` over explicit chunks, flattened back out.

    Convenience for callers whose worker function consumes a *batch*
    (e.g. one bit-parallel fault batch) but whose results are
    per-item: ``fn`` receives a list slice and must return a list of
    the same length.
    """
    batches = [
        list(items[start : start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]
    grouped = parallel_map(fn, batches, chunk_size=1, **kwargs)
    return [result for group in grouped for result in group]
