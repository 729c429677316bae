"""Self-contained HTML dashboard over the cross-run telemetry ledger.

``python -m repro dashboard --out dashboard.html`` renders the ledger
(:mod:`repro.obs.history`) into one static HTML file: stat tiles with
inline-SVG trend sparklines for every tracked series (bench ratios,
cache hit rates, campaign faults/sec, suite timings), a per-stage span
breakdown bar chart for the latest run, and a plain table view of the
latest values.  Zero third-party dependencies — no JS framework, no
chart library, no webfonts, no network fetches; tooltips are native
SVG ``<title>`` elements and dark mode is a ``prefers-color-scheme``
variable swap.

The output is **byte-deterministic given a fixed ledger**: no
generation timestamp, stable sort orders everywhere, and one fixed
float format (``%.6g``) — CI can diff two dashboards to diff two
ledgers.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Sequence

from repro.obs import history as _history

#: Sparkline points drawn per series (newest records win).
SPARK_POINTS = 30

#: Sparkline viewbox (px).
_SPARK_W, _SPARK_H = 120, 28

#: Stage-breakdown bar area width (px).
_BAR_W = 220

_CSS = """\
:root {
  color-scheme: light dark;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series: #2a78d6; --trend: #c3c2b7;
  --good: #006300; --bad: #d03b3b;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --series: #3987e5; --trend: #383835;
    --good: #0ca30c; --bad: #e66767;
    --ring: rgba(255,255,255,0.10);
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 14px 8px; min-width: 180px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 22px; font-weight: 600; }
.tile .delta { font-size: 12px; }
.tile .delta.up { color: var(--good); }
.tile .delta.down { color: var(--bad); }
.tile .delta.flat { color: var(--muted); }
.group { margin: 18px 0 0; }
table { border-collapse: collapse; background: var(--surface); }
th, td {
  text-align: left; padding: 4px 12px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--ink-2); font-weight: 600; }
details summary { cursor: pointer; color: var(--ink-2); margin: 10px 0; }
.bars text { fill: var(--ink-2); font-size: 11px; }
.bars .val { fill: var(--ink-2); }
svg .spark-line { stroke: var(--trend); }
svg .spark-dot { fill: var(--series); stroke: var(--surface); }
svg .bar { fill: var(--series); }
svg .axis { stroke: var(--baseline); }
"""

#: Public alias for reuse by other HTML surfaces (the serve status
#: page shares the dashboard's look without re-authoring the CSS).
DASHBOARD_CSS = _CSS


def _fmt(value: float) -> str:
    """One fixed, deterministic number format for the whole page."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return f"{value:.6g}"


def _spark_svg(values: Sequence[float], tooltip: str) -> str:
    """Inline sparkline: trend in the de-emphasis hue, latest in accent."""
    w, h, pad = _SPARK_W, _SPARK_H, 4
    if len(values) < 2:
        return (
            f'<svg width="{w}" height="{h}" role="img">'
            f"<title>{html.escape(tooltip)}</title>"
            f'<circle class="spark-dot" cx="{w - pad}" cy="{h // 2}" '
            f'r="4" stroke-width="2"/></svg>'
        )
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = (w - 2 * pad) / (len(values) - 1)
    points = []
    for i, v in enumerate(values):
        x = pad + i * step
        y = pad + (h - 2 * pad) * (1.0 - (v - lo) / span)
        points.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = points[-1].split(",")
    return (
        f'<svg width="{w}" height="{h}" role="img">'
        f"<title>{html.escape(tooltip)}</title>"
        f'<polyline class="spark-line" fill="none" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round" '
        f'points="{" ".join(points)}"/>'
        f'<circle class="spark-dot" cx="{last_x}" cy="{last_y}" r="4" '
        f'stroke-width="2"/></svg>'
    )


#: Public alias (same reuse rationale as :data:`DASHBOARD_CSS`).
spark_svg = _spark_svg


def _series_values(
    records: Sequence[dict], name: str, limit: int = SPARK_POINTS
) -> list[float]:
    values = [
        r["series"][name]
        for r in records
        if isinstance(r.get("series", {}).get(name), (int, float))
        and not isinstance(r["series"][name], bool)
    ]
    return values[-limit:]


def _delta_class(values: Sequence[float], direction: str | None) -> tuple[str, str]:
    """(css class, signed % text) of latest vs the median of the rest."""
    if len(values) < 2:
        return "flat", "first sample"
    baseline = _history._median(values[:-1])
    if baseline == 0:
        return "flat", "n/a"
    pct = 100.0 * (values[-1] - baseline) / abs(baseline)
    if abs(pct) < 0.05:
        return "flat", "±0% vs median"
    sign = "+" if pct > 0 else "−"
    text = f"{sign}{abs(pct):.1f}% vs median"
    if direction is None or abs(pct) < 1.0:
        return "flat", text
    good = (pct > 0) == (direction == "higher")
    return ("up" if good else "down"), text


def _tile(records: Sequence[dict], name: str) -> str:
    values = _series_values(records, name)
    if not values:
        return ""
    direction = _history.series_direction(name)
    cls, delta = _delta_class(values, direction)
    tooltip = (
        f"{name}: {len(values)} samples, "
        f"min {_fmt(min(values))}, max {_fmt(max(values))}"
    )
    return (
        '<div class="tile">'
        f'<div class="label">{html.escape(name)}</div>'
        f'<div class="value">{_fmt(values[-1])}</div>'
        f"{_spark_svg(values, tooltip)}"
        f'<div class="delta {cls}">{html.escape(delta)}</div>'
        "</div>"
    )


#: (section title, predicate over series names) — fixed render order.
_GROUPS = (
    ("Bench ratios", lambda n: n.startswith("bench.") and n.endswith(".speedup")),
    ("Bench throughput & overhead",
     lambda n: n.startswith("bench.") and not n.endswith(".speedup")),
    ("Cache hit rates", lambda n: n.endswith("_hit_rate")),
    ("Campaign throughput",
     lambda n: n.startswith("metric.faults.") or n.endswith(".faults_per_s")),
    ("Monte-Carlo yield",
     lambda n: n.startswith("mc.") or n.startswith("metric.mc.")),
    ("Worker fan-out health", lambda n: n.startswith("metric.exec.worker")),
    ("Service latency",
     lambda n: n.startswith("serve.") or n.startswith("metric.serve.")),
    ("Suite & stage timings",
     lambda n: n == "wall_seconds" or n.startswith("stage.")),
)


def _stage_bars(record: dict) -> str:
    """Horizontal per-stage wall-time bars for one record."""
    stages = sorted(
        (
            (name[len("stage."):-len(".wall_s")], value)
            for name, value in record.get("series", {}).items()
            if name.startswith("stage.") and name.endswith(".wall_s")
        ),
        key=lambda item: (-item[1], item[0]),
    )
    if not stages:
        return '<p class="sub">latest record has no stage spans</p>'
    top = max(value for _, value in stages) or 1.0
    row_h, bar_h, label_w = 26, 16, 180
    height = row_h * len(stages) + 8
    parts = [
        f'<svg class="bars" width="{label_w + _BAR_W + 90}" '
        f'height="{height}" role="img">'
    ]
    for i, (name, value) in enumerate(stages):
        y = 4 + i * row_h
        width = max(2.0, _BAR_W * value / top)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 4}" '
            f'text-anchor="end">{html.escape(name)}</text>'
            f'<rect class="bar" x="{label_w}" y="{y}" '
            f'width="{width:.1f}" height="{bar_h}" rx="4"/>'
            f'<rect class="bar" x="{label_w}" y="{y}" '
            f'width="{min(width, 4):.1f}" height="{bar_h}"/>'
            f'<text class="val" x="{label_w + width + 6:.1f}" '
            f'y="{y + bar_h - 4}">{_fmt(value)}s</text>'
            f"<title>{html.escape(name)}: {_fmt(value)}s</title>"
        )
    parts.append(
        f'<line class="axis" x1="{label_w}" y1="2" x2="{label_w}" '
        f'y2="{height - 2}" stroke-width="1"/></svg>'
    )
    return "".join(parts)


def _latest_table(record: dict) -> str:
    rows = "".join(
        f"<tr><td>{html.escape(name)}</td><td>{_fmt(value)}</td></tr>"
        for name, value in sorted(record.get("series", {}).items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    return (
        "<details><summary>Latest record: all series as a table</summary>"
        "<table><thead><tr><th>Series</th><th>Value</th></tr></thead>"
        f"<tbody>{rows}</tbody></table></details>"
    )


def render_dashboard(records: Sequence[dict], title: str = "repro telemetry") -> str:
    """The full HTML page for one ledger snapshot (deterministic)."""
    records = list(records)
    if not records:
        body = '<p class="sub">The ledger is empty — profiled runs, benches, and campaigns will appear here.</p>'
        latest = {}
    else:
        latest = records[-1]
        names = sorted({
            name
            for r in records
            for name, value in r.get("series", {}).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        })
        claimed: set[str] = set()
        sections = []
        for group_title, match in _GROUPS:
            members = [n for n in names if n not in claimed and match(n)]
            claimed.update(members)
            tiles = "".join(_tile(records, n) for n in members)
            if tiles:
                sections.append(
                    f'<div class="group"><h2>{html.escape(group_title)}</h2>'
                    f'<div class="tiles">{tiles}</div></div>'
                )
        kinds: dict[str, int] = {}
        fingerprints = set()
        for r in records:
            kinds[r.get("kind", "?")] = kinds.get(r.get("kind", "?"), 0) + 1
            fingerprints.add(
                _history.fingerprint_key(r.get("fingerprint", {}))
            )
        kind_text = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        body = (
            f'<p class="sub">{len(records)} ledger records ({kind_text}) '
            f"across {len(fingerprints)} environment fingerprint(s); "
            f'latest {html.escape(str(latest.get("ts", "?")))} — '
            f'<code>{html.escape(" ".join(latest.get("command", [])))}</code>'
            "</p>"
            + "".join(sections)
            + "<h2>Per-stage span breakdown (latest record)</h2>"
            + _stage_bars(latest)
            + _latest_table(latest)
        )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>\n{_CSS}</style></head>\n"
        f"<body><h1>{html.escape(title)}</h1>\n{body}\n</body></html>\n"
    )


def write_dashboard(
    path,
    records: Sequence[dict] | None = None,
    ledger=None,
    title: str = "repro telemetry",
) -> Path:
    """Render the ledger (or ``records``) to ``path``; returns the path.

    Missing parent directories of ``path`` are created.
    """
    if records is None:
        records = _history.read_ledger(ledger)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_dashboard(records, title=title))
    return path
