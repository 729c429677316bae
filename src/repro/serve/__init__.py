"""Long-running DSE service: job queue + observability HTTP API.

``python -m repro serve`` turns the repo's one-shot CLI drivers
(sweep, yield, fault campaign, fuzz verify, profile, place) into a
zero-dependency service built on the stdlib ``ThreadingHTTPServer``:

* :mod:`repro.serve.drivers` — the job-kind registry mapping a
  ``(kind, params)`` request onto an existing pipeline entry point,
  with canonicalized parameters so identical requests share one
  content-addressed dedup key;
* :mod:`repro.serve.jobs` — the thread-safe job queue: worker
  threads, per-job trace ids stitched across :mod:`repro.exec` pool
  workers, per-job progress through the :mod:`repro.obs.progress`
  sink, per-job run reports, and one ``serve`` ledger record per
  completed job so the regression sentinel gates service latency;
* :mod:`repro.serve.server` — the HTTP surface (``/metrics``,
  ``/healthz``, ``/readyz``, ``/jobs``, ``/``);
* :mod:`repro.serve.page` — the self-reloading status page reusing
  the telemetry dashboard's CSS/sparklines;
* :mod:`repro.serve.cli` — argument parsing, ``REPRO_SERVE_*`` env
  knobs, and graceful SIGTERM/SIGINT drain.

See ``docs/SERVE.md`` for the endpoint reference.
"""

from repro.serve.drivers import canonical_params, job_kinds, run_job
from repro.serve.jobs import Job, JobManager, job_key
from repro.serve.cli import serve_main

__all__ = [
    "Job",
    "JobManager",
    "canonical_params",
    "job_key",
    "job_kinds",
    "run_job",
    "serve_main",
]
