"""The status page (``GET /``).

One self-contained HTML page sharing the telemetry dashboard's CSS and
sparkline machinery (:mod:`repro.obs.dashboard`), rendered server-side
from the job table and metric registry.  A ``<meta http-equiv=
"refresh">`` reloads it every :data:`REFRESH_S` seconds, so it is at
most that stale.
"""

from __future__ import annotations

import html
import time

from repro.obs.dashboard import DASHBOARD_CSS, spark_svg
from repro.obs.metrics import REGISTRY
from repro.serve.jobs import JobManager

#: Seconds between the page's own reloads.
REFRESH_S = 2


def _fmt_s(value) -> str:
    return "-" if value is None else f"{value:.2f}s"


def _job_row(manager: JobManager, job) -> str:
    progress = ""
    if job.progress and job.progress.get("percent") is not None:
        progress = f"{job.progress['percent']}%"
        if job.progress.get("eta_s") is not None:
            progress += f" (eta {job.progress['eta_s']:.0f}s)"
    elif job.status == "queued":
        position = manager.queue_position(job)
        progress = f"queue #{position + 1}" if position is not None else ""
    links = ""
    if job.finished:
        links = (
            f'<a href="/jobs/{job.id}/trace">trace</a> '
            f'<a href="/jobs/{job.id}/report">report</a>'
        )
    error = html.escape(job.error or "")
    return (
        "<tr>"
        f'<td><a href="/jobs/{job.id}">{job.id}</a></td>'
        f"<td>{html.escape(job.kind)}</td>"
        f'<td class="st-{job.status}">{job.status}</td>'
        f"<td>{html.escape(progress)}</td>"
        f"<td>{_fmt_s(job.queue_wait_s)}</td>"
        f"<td>{_fmt_s(job.wall_s)}</td>"
        f"<td>{job.dedup_hits}</td>"
        f"<td>{links}{error}</td>"
        "</tr>"
    )


def _tile(label: str, value) -> str:
    return (
        '<div class="tile">'
        f'<div class="label">{html.escape(label)}</div>'
        f'<div class="value">{html.escape(str(value))}</div>'
        "</div>"
    )


def render_page(manager: JobManager, started_ts: float) -> str:
    """The whole status page as one HTML document."""
    stats = manager.stats()
    jobs = manager.jobs()
    snapshot = REGISTRY.snapshot()
    walls = [j.wall_s for j in jobs if j.wall_s is not None][-30:]
    spark = (
        spark_svg(walls, f"last {len(walls)} job wall times")
        if walls
        else ""
    )
    uptime = time.time() - started_ts
    rows = "".join(_job_row(manager, job) for job in reversed(jobs))
    tiles = "".join(
        [
            _tile("uptime", f"{uptime:.0f}s"),
            _tile("jobs", stats["jobs"]),
            _tile("queued", stats["by_status"].get("queued", 0)),
            _tile("running", stats["by_status"].get("running", 0)),
            _tile("done", stats["by_status"].get("done", 0)),
            _tile("failed", stats["by_status"].get("failed", 0)),
            _tile("dedup hits", snapshot.get("serve.dedup_hits", 0)),
        ]
    )
    state = "draining" if stats["draining"] else "serving"
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{REFRESH_S}">
<title>repro serve</title>
<style>{DASHBOARD_CSS}
.st-done {{ color: var(--trend); }}
.st-failed {{ color: #c0392b; }}
td a {{ margin-right: 6px; }}
</style>
</head>
<body>
<h1>repro serve ({state})</h1>
<p>live DSE service &mdash; <a href="/metrics">/metrics</a>
 &middot; <a href="/jobs">/jobs</a>
 &middot; <a href="/healthz">/healthz</a></p>
<div class="tiles">{tiles}</div>
<h2>Job wall times</h2>
{spark}
<h2>Jobs</h2>
<table>
<tr><th>id</th><th>kind</th><th>status</th><th>progress</th>
<th>queue wait</th><th>wall</th><th>dedup</th><th>links</th></tr>
{rows}
</table>
</body>
</html>
"""
