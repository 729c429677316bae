"""Machine-readable run reports (``RUN_REPORT.json``).

One flow invocation -- a table regeneration, a design-space sweep, a
benchmark -- produces one report: per-stage timings aggregated from
the tracer, the full metrics snapshot, detailed spans (so per-design-
point costs survive), and enough environment/git metadata to compare
runs across machines and commits.  ``python -m repro --profile ...``
writes one automatically; harnesses call :func:`build_run_report` /
:func:`write_run_report` directly.

Schema (``repro.obs.run_report/v3``, a strict superset of v2, itself a
strict superset of v1)::

    {
      "schema": "repro.obs.run_report/v3",
      "generated": ISO-8601 UTC timestamp,
      "command": ["table7"],           # what ran
      "wall_seconds": 1.23,            # whole-run wall clock
      "stages": [                      # top-level (depth-0) spans
        {"name": "table7", "count": 1, "wall_s": 1.20, "cpu_s": 1.19}
      ],
      "stage_coverage": 0.97,          # sum(stage wall) / wall_seconds
      "spans": [...],                  # detailed events (capped)
      "span_count": 57,
      "metrics": {"compile.cache_hits": 3, ...},
      "environment": {"python": ..., "platform": ..., "argv": [...]},
      "git": {"commit": ..., "dirty": bool},  # best-effort, may be {}
      "design_profiles": [...],        # v2: profile-design results
      "fingerprint": {                 # v3: env identity shared with
        "cpu_count": 4, "platform": "Linux", "machine": "x86_64",
        "python": "3.12.3", "git_sha": "..."   # the history ledger
      },
      "history_ref": "9f2c4e..."       # v3: ledger record id (absent
                                       # when REPRO_HISTORY=0)
    }

Every v1 key is unchanged; v2 adds ``design_profiles``, a list of
design-under-test profiles (per-module energy attribution plus
per-instruction histograms) as produced by
:func:`repro.apps.profile.profile_design` -- empty for runs that
profiled nothing.  v3 adds ``fingerprint`` (the coarse environment
identity block the cross-run ledger matches baselines on -- see
:mod:`repro.obs.history`) and ``history_ref`` (the content-addressed
id of the ledger record this emission appended).

Serialization is deterministic: :func:`dump_report_json` always sorts
keys, and ``compact=True`` additionally elides the per-span detail and
drops indentation so checked-in reports (``BENCH_sim.json``) diff by
value, not by layout.

The terminal summary renders through
:func:`repro.eval.report.render_table` so profiled runs read like the
regenerated paper tables.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

#: Detailed span events kept in a report (aggregates always cover all).
MAX_REPORT_SPANS = 5000

SCHEMA = "repro.obs.run_report/v3"


def environment_metadata() -> dict:
    """Interpreter/host facts that make timings comparable."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
    }


def git_metadata(cwd=None) -> dict:
    """Best-effort ``{commit, dirty}``; empty when git is unavailable."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
        if commit.returncode != 0:
            return {}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
        return {
            "commit": commit.stdout.strip(),
            "dirty": bool(status.stdout.strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return {}


def build_run_report(
    command: Sequence[str],
    wall_seconds: float,
    tracer: "_trace.Tracer | None" = None,
    registry: "_metrics.MetricsRegistry | None" = None,
    extra: dict | None = None,
    profiles: Sequence[dict] | None = None,
) -> dict:
    """Assemble the run-report dict (see module docstring schema).

    ``profiles`` fills the v2 ``design_profiles`` section with
    design-under-test profiles (``profile-design`` results); it stays
    an empty list for runs that profiled nothing.
    """
    tracer = tracer if tracer is not None else _trace.TRACER
    registry = registry if registry is not None else _metrics.REGISTRY
    events = tracer.events()
    stages = [
        {
            "name": s.name,
            "count": s.count,
            "wall_s": round(s.wall_s, 6),
            "cpu_s": round(s.cpu_s, 6),
        }
        for s in tracer.summaries(depth=0)
    ]
    stage_wall = sum(s["wall_s"] for s in stages)
    spans = [
        {
            "name": e.name,
            "path": e.path,
            "depth": e.depth,
            "start_us": round(e.start_us, 1),
            "wall_s": round(e.wall_s, 6),
            "cpu_s": round(e.cpu_s, 6),
            **({"attrs": e.attrs} if e.attrs else {}),
            **({"error": e.error} if e.error else {}),
        }
        for e in events[:MAX_REPORT_SPANS]
    ]
    report = {
        "schema": SCHEMA,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": list(command),
        "wall_seconds": round(wall_seconds, 6),
        "stages": stages,
        "stage_coverage": round(stage_wall / wall_seconds, 4)
        if wall_seconds > 0
        else 0.0,
        "spans": spans,
        "span_count": len(events),
        "metrics": registry.snapshot(),
        "environment": environment_metadata(),
        "git": git_metadata(),
        "design_profiles": list(profiles) if profiles else [],
    }
    from repro.obs import history as _history

    report["fingerprint"] = _history.env_fingerprint()
    if extra:
        report.update(extra)
    return report


def dump_report_json(report: dict, compact: bool = False) -> str:
    """Deterministic JSON encoding for run reports.

    Keys are always sorted so two reports with identical content are
    byte-identical regardless of insertion order.  ``compact=True``
    additionally replaces the per-span detail with an empty list
    (``span_count`` and the stage aggregates still cover every span)
    and uses one-space indentation -- the shape checked-in bench
    baselines use so their diffs are dominated by changed *values*.
    """
    if compact and report.get("spans"):
        report = {**report, "spans": []}
    indent = 1 if compact else 2
    return json.dumps(report, indent=indent, sort_keys=True) + "\n"


def write_run_report(path, report: dict, compact: bool = False) -> Path:
    """Serialize ``report`` to ``path``; feed the cross-run ledger.

    Missing parent directories of ``path`` are created.

    Every emission appends one compact record to the history ledger
    (:mod:`repro.obs.history`) and carries the record id back in the
    report's ``history_ref`` -- unless ``REPRO_HISTORY=0``, in which
    case the key is absent and nothing is written outside ``path``.
    """
    from repro.obs import history as _history
    from repro.obs import live as _live

    record_id = _history.record_report(report)
    if record_id is not None:
        report["history_ref"] = record_id
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_report_json(report, compact=compact))
    if _live.ACTIVE is not None:
        _live.publish(
            "report",
            {
                "command": report.get("command", []),
                "wall_seconds": report.get("wall_seconds"),
                "span_count": report.get("span_count"),
                "history_ref": report.get("history_ref"),
                "path": str(path),
            },
        )
    return path


def render_run_report(report: dict) -> str:
    """Terminal summary: stage table plus the non-zero metrics."""
    from repro.eval.report import render_table  # heavy package; lazy

    rows = [
        (
            s["name"],
            s["count"],
            f"{s['wall_s']:.3f}",
            f"{s['cpu_s']:.3f}",
            f"{100 * s['wall_s'] / report['wall_seconds']:.1f}%"
            if report["wall_seconds"]
            else "-",
        )
        for s in report["stages"]
    ]
    rows.append(
        ("(total wall)", "", f"{report['wall_seconds']:.3f}", "",
         f"{100 * report.get('stage_coverage', 0):.1f}% covered")
    )
    out = render_table(
        f"Run report: {' '.join(report['command'])}",
        ("Stage", "Calls", "Wall s", "CPU s", "Share"),
        rows,
    )
    return out + "\n" + render_metrics(report["metrics"])


def render_metrics(snapshot: dict) -> str:
    """Metrics snapshot as a two-column table (zeros elided)."""
    from repro.eval.report import render_table  # heavy package; lazy

    rows = []
    for name, value in snapshot.items():
        if isinstance(value, dict):
            if value.get("count"):
                rows.append(
                    (name,
                     f"n={value['count']} mean={value['mean']:.4g} "
                     f"min={value['min']:.4g} max={value['max']:.4g}")
                )
        elif value:
            rows.append((name, f"{value:g}" if isinstance(value, float) else value))
    if not rows:
        rows.append(("(no metrics recorded)", ""))
    return render_table("Metrics", ("Name", "Value"), rows)
