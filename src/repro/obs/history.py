"""Cross-run telemetry ledger and statistical regression sentinel.

Every ``RUN_REPORT.json`` / ``BENCH_sim.json`` emission is a point
sample: the moment the process exits, its timings and ratios have no
history to stand against.  This module gives the repo a memory — an
**append-only, content-addressed run ledger** (one compact JSONL
record per run) that :func:`repro.obs.report.write_run_report` feeds
automatically, plus a **regression sentinel** that replaces hand-tuned
fixed bench floors with a robust rolling baseline (median/MAD over the
last N *matching* records).

Ledger records (schema ``repro.obs.history/v1``)::

    {
      "schema": "repro.obs.history/v1",
      "id": "9f2c4e...",            # sha-256 of the canonical record
      "ts": "2026-08-08T12:00:00+00:00",
      "kind": "run_report" | "bench" | "campaign" | ...,
      "command": ["table7"],
      "fingerprint": {               # environment identity (shared with
        "cpu_count": 4,              # RUN_REPORT v3's block)
        "platform": "Linux-...",
        "machine": "x86_64",
        "python": "3.12.3",
        "git_sha": "dfdb525..."      # best-effort, may be ""
      },
      "series": {"wall_seconds": 1.2, "bench.cosim.p1_8_2.speedup": 9.1,
                 "metric.faults.per_second.mean": 812.0, ...}
    }

Design points:

* **Atomic appends** — each record is one ``\\n``-terminated line
  written with a single ``os.write`` on an ``O_APPEND`` descriptor, so
  concurrent writers (e.g. :mod:`repro.exec` pool workers) interleave
  whole records, never torn ones.
* **Content addressing** — ``id`` is the SHA-256 of the canonical
  (sorted-keys, id-less) JSON encoding; identical telemetry hashes to
  the identical id, and ``RUN_REPORT.json`` carries it back as
  ``history_ref``.
* **Corruption tolerance** — a truncated or garbled line (a crashed
  writer, a filesystem hiccup) is skipped with a warning and counted
  (``history.corrupt_records``); reading never crashes.
* **Environment matching** — the sentinel only compares a run against
  baseline records whose :func:`fingerprint_key` matches (cpu count,
  platform, machine, python), so a 1-CPU CI container never gates
  against a multi-core laptop's numbers.
* **Opt-out** — ``REPRO_HISTORY=0`` disables appends entirely;
  ``$REPRO_HISTORY_DIR`` moves the ledger (default
  ``~/.cache/repro/history/``).

The sentinel (:func:`check_latest`, CLI ``python -m repro history
check``) gates each *directional* series (see :func:`series_direction`)
with ``tolerance = max(k * 1.4826 * MAD, rel_floor * |median|)``:
scaled MAD absorbs machine jitter measured from the baseline itself,
and the relative floor keeps near-constant series from tripping on
noise below ``rel_floor``.  Fewer than ``min_baseline`` matching
records is a *cold start*: an informational pass, never a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.metrics import counter as _obs_counter

SCHEMA = "repro.obs.history/v1"

#: Ledger filename inside :func:`history_dir`.
LEDGER_NAME = "ledger.jsonl"

#: Rolling-baseline window (matching records) for the sentinel.
DEFAULT_WINDOW = 20

#: Matching records required before the sentinel gates anything.
MIN_BASELINE = 3

#: MAD multiplier: tolerance covers ±k robust standard deviations.
MAD_K = 4.0

#: Relative tolerance floor — deviations under this fraction of the
#: baseline median never fail, however tight the baseline's jitter.
REL_FLOOR = 0.10

#: Consistency constant making MAD estimate sigma for normal noise.
_MAD_SIGMA = 1.4826

_APPENDS = _obs_counter("history.appends")
_APPEND_ERRORS = _obs_counter("history.append_errors")
_CORRUPT = _obs_counter("history.corrupt_records")


# -- ledger location & switches -------------------------------------------


def history_enabled() -> bool:
    """Whether ledger appends are active (``REPRO_HISTORY``).

    Enabled by default; set ``REPRO_HISTORY=0`` (or empty) to make
    every append a silent no-op.  Read per call so tests can flip it.
    """
    return os.environ.get("REPRO_HISTORY", "1") not in ("", "0")


def history_dir() -> Path:
    """Ledger directory (not created until the first append).

    ``$REPRO_HISTORY_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro/
    history`` or ``~/.cache/repro/history``.
    """
    base = os.environ.get("REPRO_HISTORY_DIR")
    if base:
        return Path(base)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = (Path(xdg) if xdg else Path.home() / ".cache") / "repro"
    return root / "history"


def ledger_path() -> Path:
    """The append-only JSONL ledger file."""
    return history_dir() / LEDGER_NAME


# -- environment fingerprint ----------------------------------------------


def env_fingerprint() -> dict:
    """Host identity block shared by ledger records and RUN_REPORT v3.

    Deliberately coarse: it must distinguish *machine classes* (a
    1-CPU CI container vs an 8-core laptop, Linux vs Darwin, 3.10 vs
    3.12), not individual boots, so baselines accumulate.
    """
    from repro.obs.report import git_metadata  # cycle-free at call time

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.system(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "git_sha": git_metadata().get("commit", ""),
    }


def fingerprint_key(fingerprint: dict) -> str:
    """Baseline-matching key for one fingerprint block.

    Excludes ``git_sha`` on purpose — comparing *across* commits is
    the ledger's whole point; only the hardware/interpreter class must
    match.
    """
    return "|".join(
        str(fingerprint.get(k, ""))
        for k in ("cpu_count", "platform", "machine", "python")
    )


# -- record construction ---------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def extract_series(report: dict) -> dict:
    """Flatten one run report into the compact ``series`` scalar map.

    Keeps the trends worth charting and gating — wall clock, per-stage
    wall times, cache hit rates, metric scalars and histogram means,
    and (for bench reports) the headline ratio/throughput sections —
    while dropping the per-span detail that makes reports big.
    """
    series: dict[str, float] = {}
    if _is_number(report.get("wall_seconds")):
        series["wall_seconds"] = report["wall_seconds"]
    for stage in report.get("stages", ()):
        if _is_number(stage.get("wall_s")):
            series[f"stage.{stage['name']}.wall_s"] = stage["wall_s"]

    metrics = report.get("metrics", {})
    from repro.obs.metrics import flatten_snapshot

    for name, value in flatten_snapshot(metrics).items():
        series[f"metric.{name}"] = value
    for prefix in ("compile.cache", "exec.cache", "coregen.memo"):
        hits = metrics.get(f"{prefix}_hits", 0)
        misses = metrics.get(f"{prefix}_misses", 0)
        if _is_number(hits) and _is_number(misses) and hits + misses > 0:
            series[f"{prefix}_hit_rate"] = round(hits / (hits + misses), 4)

    # Bench sections (BENCH_sim.json): headline ratios + throughputs.
    for core, result in report.get("cosim", {}).items():
        if _is_number(result.get("speedup")):
            series[f"bench.cosim.{core}.speedup"] = result["speedup"]
    campaign = report.get("fault_campaign_numpy", {})
    speedup = campaign.get("speedup_vs_interpreted")
    if _is_number(speedup):
        series["bench.fault_campaign_numpy.speedup_vs_interpreted"] = speedup
    for backend, result in campaign.items():
        if isinstance(result, dict) and _is_number(result.get("faults_per_s")):
            series[f"bench.fault_campaign_numpy.{backend}.faults_per_s"] = (
                result["faults_per_s"]
            )
    overhead = report.get("obs_overhead", {})
    if _is_number(overhead.get("overhead_pct")):
        series["bench.obs_overhead.overhead_pct"] = overhead["overhead_pct"]
    scaling = report.get("parallel_scaling", {})
    for jobs, entry in scaling.get("jobs", {}).items():
        if _is_number(entry.get("speedup")):
            series[f"bench.parallel_scaling.jobs{jobs}.speedup"] = (
                entry["speedup"]
            )
        if _is_number(entry.get("combined_s")):
            series[f"bench.parallel_scaling.jobs{jobs}.combined_s"] = (
                entry["combined_s"]
            )
    engine = report.get("yield_engine", {})
    if _is_number(engine.get("speedup_vs_scalar")):
        series["bench.yield_engine.speedup_vs_scalar"] = (
            engine["speedup_vs_scalar"]
        )
    for path in ("vectorized", "scalar"):
        entry = engine.get(path, {})
        if _is_number(entry.get("instances_per_s")):
            series[f"bench.yield_engine.{path}.instances_per_s"] = (
                entry["instances_per_s"]
            )

    # Yield campaigns (python -m repro yield --report): headline
    # throughput and the quality-of-result scalars per design.
    for design, campaign in report.get("yield_campaigns", {}).items():
        if _is_number(campaign.get("instances_per_second")):
            series[f"mc.{design}.instances_per_s"] = (
                campaign["instances_per_second"]
            )
        if _is_number(campaign.get("wall_seconds")):
            series[f"mc.{design}.seconds"] = campaign["wall_seconds"]
        if _is_number(campaign.get("functional_yield")):
            series[f"mc.{design}.functional_yield"] = (
                campaign["functional_yield"]
            )
        fmax = campaign.get("fmax_quantiles", {})
        if _is_number(fmax.get("0.05")):
            series[f"mc.{design}.fmax_p05"] = fmax["0.05"]

    # Placements (python -m repro place --report): placement quality
    # per design, gated so HPWL regressions trip the sentinel.
    for design, placed in report.get("placements", {}).items():
        if _is_number(placed.get("hpwl_m")):
            series[f"place.{design}.hpwl_m"] = placed["hpwl_m"]
        if _is_number(placed.get("improvement_pct")):
            series[f"place.{design}.improvement_pct"] = (
                placed["improvement_pct"]
            )
        if _is_number(placed.get("wall_s")):
            series[f"place.{design}.wall_s"] = placed["wall_s"]

    # Bench placement-quality section: greedy-vs-annealed HPWL and the
    # wire-aware PPA overheads per (design, technology).
    for key, entry in report.get("placement_quality", {}).items():
        if not isinstance(entry, dict):
            continue
        if _is_number(entry.get("hpwl_m")):
            series[f"bench.placement_quality.{key}.hpwl_m"] = entry["hpwl_m"]
        if _is_number(entry.get("improvement_pct")):
            series[f"bench.placement_quality.{key}.improvement_pct"] = (
                entry["improvement_pct"]
            )
    return series


def record_id(record: dict) -> str:
    """Content address: SHA-256 of the canonical id-less encoding."""
    canonical = {k: v for k, v in record.items() if k != "id"}
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_record(
    kind: str,
    command: Sequence[str],
    series: dict,
    fingerprint: dict | None = None,
    ts: str | None = None,
) -> dict:
    """Assemble one ledger record (id filled in from content)."""
    record = {
        "schema": SCHEMA,
        "ts": ts
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "kind": kind,
        "command": list(command),
        "fingerprint": fingerprint
        if fingerprint is not None
        else env_fingerprint(),
        "series": {k: series[k] for k in sorted(series)},
    }
    record["id"] = record_id(record)
    return record


def record_from_report(report: dict) -> dict:
    """Ledger record for one run report / bench report dict."""
    schema = report.get("schema", "")
    kind = "bench" if schema.endswith("+bench") else "run_report"
    fingerprint = report.get("fingerprint")
    if not isinstance(fingerprint, dict) or "cpu_count" not in fingerprint:
        fingerprint = env_fingerprint()
    return build_record(
        kind,
        report.get("command", ()),
        extract_series(report),
        fingerprint=fingerprint,
        ts=report.get("generated"),
    )


# -- append / read ---------------------------------------------------------


def append_record(record: dict, path=None) -> str | None:
    """Append one record atomically; returns its id (None when off).

    One ``os.write`` of one terminated line on an ``O_APPEND``
    descriptor: concurrent appenders (pool workers, parallel CI jobs
    sharing a cache) interleave whole records.  Any filesystem error
    degrades to a silent no-op — telemetry must never fail the run.
    """
    if not history_enabled():
        return None
    if "id" not in record:
        record = {**record, "id": record_id(record)}
    target = Path(path) if path is not None else ledger_path()
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            str(target), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
    except OSError:
        _APPEND_ERRORS.inc()
        return None
    _APPENDS.inc()
    return record["id"]


def record_report(report: dict, path=None) -> str | None:
    """Build + append a record for ``report``; id or None when off."""
    if not history_enabled():
        return None
    return append_record(record_from_report(report), path=path)


def read_ledger(path=None) -> list[dict]:
    """Every parseable record, oldest first; corruption skips + warns.

    A truncated final line (crashed writer) or a garbled middle line
    is counted in ``history.corrupt_records`` and reported once per
    read on stderr; the surviving records always come back.
    """
    target = Path(path) if path is not None else ledger_path()
    try:
        text = target.read_text()
    except OSError:
        return []
    records: list[dict] = []
    skipped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(record, dict) or "series" not in record:
            skipped += 1
            continue
        records.append(record)
    if skipped:
        _CORRUPT.inc(skipped)
        print(
            f"[obs] history: skipped {skipped} corrupt record(s) in {target}",
            file=sys.stderr,
        )
    return records


# -- regression sentinel ---------------------------------------------------


def series_direction(name: str) -> str | None:
    """Gating direction for one series name, or None (informational).

    ``"higher"`` — throughput/ratio series where a drop is a
    regression; ``"lower"`` — cost series where a rise is.  Everything
    else (counts, coverage snapshots) is tracked but never gated.
    """
    if name.endswith(
        (".speedup", ".faults_per_s", "_hit_rate", ".per_second.mean",
         ".instances_per_s", ".improvement_pct")
    ) or name.rsplit(".", 1)[-1].startswith("speedup_vs_"):
        return "higher"
    if name.endswith(
        ("wall_seconds", ".wall_s", ".combined_s", ".seconds",
         ".overhead_pct", ".hpwl_m", ".queue_wait_s")
    ):
        return "lower"
    return None


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass(frozen=True)
class SeriesCheck:
    """Verdict for one series of the checked record."""

    name: str
    status: str  # "ok" | "regression" | "no_baseline" | "info"
    value: float
    baseline_n: int = 0
    median: float | None = None
    mad: float | None = None
    tolerance: float | None = None
    direction: str | None = None

    def describe(self) -> str:
        if self.status == "no_baseline":
            return (
                f"{self.name}: {self.value:g} "
                f"(cold start, {self.baseline_n} baseline records)"
            )
        arrow = "<" if self.direction == "higher" else ">"
        return (
            f"{self.name}: {self.value:g} {arrow}? "
            f"median {self.median:g} ± {self.tolerance:g} "
            f"(n={self.baseline_n}, MAD {self.mad:g}) -> {self.status}"
        )


@dataclass
class HistoryCheck:
    """Sentinel result over every gated series of one record."""

    record: dict
    checks: list[SeriesCheck] = field(default_factory=list)

    @property
    def regressions(self) -> list[SeriesCheck]:
        return [c for c in self.checks if c.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"history check: record {self.record.get('id', '?')} "
            f"({' '.join(self.record.get('command', []))}, "
            f"kind={self.record.get('kind', '?')})"
        ]
        gated = [c for c in self.checks if c.status != "info"]
        if not gated:
            lines.append("  no gated series (informational pass)")
        for check in gated:
            marker = "FAIL" if check.status == "regression" else "  ok"
            if check.status == "no_baseline":
                marker = "cold"
            lines.append(f"  [{marker}] {check.describe()}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"history check: {verdict} "
            f"({len(self.regressions)} regression(s), "
            f"{len(gated)} gated series)"
        )
        return "\n".join(lines)


def baseline_for(
    record: dict, records: Iterable[dict], window: int = DEFAULT_WINDOW
) -> list[dict]:
    """The last ``window`` prior records matching ``record``.

    Matching = same kind, same command, same :func:`fingerprint_key`;
    the checked record itself (by id) is excluded so a just-appended
    run never baselines against itself.
    """
    key = fingerprint_key(record.get("fingerprint", {}))
    matches = [
        r
        for r in records
        if r.get("id") != record.get("id")
        and r.get("kind") == record.get("kind")
        and r.get("command") == record.get("command")
        and fingerprint_key(r.get("fingerprint", {})) == key
    ]
    return matches[-window:]


def check_record(
    record: dict,
    baseline: Sequence[dict],
    min_baseline: int = MIN_BASELINE,
    mad_k: float = MAD_K,
    rel_floor: float = REL_FLOOR,
) -> HistoryCheck:
    """Gate every directional series of ``record`` against ``baseline``.

    Robust rule per series: with ``m`` = baseline median and ``s`` =
    ``1.4826 * MAD``, a higher-is-better series regresses when
    ``value < m - max(mad_k*s, rel_floor*|m|)`` (mirrored for
    lower-is-better).  Series with under ``min_baseline`` baseline
    samples report ``no_baseline`` — a cold start is informational.
    """
    result = HistoryCheck(record=record)
    for name, value in sorted(record.get("series", {}).items()):
        direction = series_direction(name)
        if direction is None or not _is_number(value):
            result.checks.append(
                SeriesCheck(name=name, status="info", value=value)
            )
            continue
        samples = [
            r["series"][name]
            for r in baseline
            if _is_number(r.get("series", {}).get(name))
        ]
        if len(samples) < min_baseline:
            result.checks.append(
                SeriesCheck(
                    name=name,
                    status="no_baseline",
                    value=value,
                    baseline_n=len(samples),
                    direction=direction,
                )
            )
            continue
        median = _median(samples)
        mad = _median([abs(v - median) for v in samples])
        tolerance = max(mad_k * _MAD_SIGMA * mad, rel_floor * abs(median))
        if direction == "higher":
            regressed = value < median - tolerance
        else:
            regressed = value > median + tolerance
        result.checks.append(
            SeriesCheck(
                name=name,
                status="regression" if regressed else "ok",
                value=value,
                baseline_n=len(samples),
                median=median,
                mad=mad,
                tolerance=tolerance,
                direction=direction,
            )
        )
    return result


def check_latest(
    records: Sequence[dict] | None = None,
    path=None,
    kind: str | None = None,
    command: Sequence[str] | None = None,
    window: int = DEFAULT_WINDOW,
    **kwargs,
) -> HistoryCheck | None:
    """Sentinel-check the newest (optionally filtered) ledger record.

    ``None`` when the ledger has no matching record at all — distinct
    from a cold-start pass, which needs a record to check.
    """
    if records is None:
        records = read_ledger(path)
    candidates = [
        r
        for r in records
        if (kind is None or r.get("kind") == kind)
        and (command is None or r.get("command") == list(command))
    ]
    if not candidates:
        return None
    latest = candidates[-1]
    baseline = baseline_for(latest, records, window=window)
    return check_record(latest, baseline, **kwargs)
