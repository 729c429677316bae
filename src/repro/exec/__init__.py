"""Work distribution tier: process-parallel execution + artifact cache.

``repro.exec`` is the subsystem that makes the evaluation pipeline
scale with available cores and never rebuild an artifact twice:

* :func:`parallel_map` -- chunked process-pool fan-out with
  deterministic (submission-order) reassembly and worker-to-parent
  observability shipping (:mod:`repro.exec.engine`);
* :func:`resolve_jobs` / :func:`set_default_jobs` -- worker-count
  policy shared by every ``jobs=`` API, ``python -m repro --jobs N``,
  and ``REPRO_JOBS``;
* the content-addressed on-disk artifact cache
  (:mod:`repro.exec.cache`) under ``$REPRO_CACHE_DIR`` (default
  ``~/.cache/repro``) that lets warm process starts skip
  ``generate_core`` and simulation codegen entirely;
* :func:`clear_caches` -- drop the *in-memory* evaluation memos
  (benchmark/test helper; the disk cache is unaffected).

See ``docs/PARALLELISM.md`` for the full model: determinism
guarantees, cache keying/invalidation, and how worker metrics merge
into ``RUN_REPORT.json``.
"""

from __future__ import annotations

from repro.exec.cache import (
    CACHE_VERSION,
    cache_enabled,
    cache_root,
    load_artifact,
    source_digest,
    store_artifact,
    structural_hash,
)
from repro.exec.engine import (
    map_in_chunks,
    parallel_map,
    resolve_jobs,
    set_default_jobs,
)

__all__ = [
    "CACHE_VERSION",
    "cache_enabled",
    "cache_root",
    "clear_caches",
    "load_artifact",
    "map_in_chunks",
    "parallel_map",
    "resolve_jobs",
    "set_default_jobs",
    "source_digest",
    "store_artifact",
    "structural_hash",
]


def clear_caches() -> None:
    """Clear the in-memory evaluation memos (not the on-disk cache).

    Resets the elaboration memo (``generate_core``), the per-(core,
    technology) analysis and sweep evaluation memos (``dse.sweep``),
    and the benchmark run memo (``eval.system``) so benchmarks can
    measure cold-start costs and tests can isolate cache behaviour.
    Imports lazily: the memos live in heavier modules this package must
    not pull in at import time.
    """
    from repro.coregen.generator import _generate_core
    from repro.dse.sweep import _core_reports, _evaluate_design
    from repro.eval.system import benchmark_run

    _generate_core.cache_clear()
    _core_reports.cache_clear()
    _evaluate_design.cache_clear()
    benchmark_run.cache_clear()
