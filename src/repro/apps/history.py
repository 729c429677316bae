"""``python -m repro history`` / ``python -m repro dashboard``.

Command-line surface over the cross-run telemetry ledger
(:mod:`repro.obs.history`) and its HTML dashboard
(:mod:`repro.obs.dashboard`)::

    python -m repro history show                  # recent records
    python -m repro history check                 # regression sentinel
    python -m repro history check --kind bench --window 10
    python -m repro history append --report BENCH_sim.json
    python -m repro dashboard --out dashboard.html

``history check`` gates the *latest* (optionally kind/command
filtered) record against the rolling median/MAD baseline of matching
prior records and exits 1 on a statistical regression, 0 on a pass --
including the cold-start case (no baseline yet), which is reported as
informational.  ``history append`` feeds an existing report JSON into
the ledger, which CI uses to accumulate a cached baseline across runs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

from repro import cli
from repro.obs import history

LEDGER = cli.Option("--ledger", str, None,
                    "ledger file (None: the $REPRO_HISTORY_DIR ledger)")

HISTORY_OPTIONS = {
    "show": (
        LEDGER,
        cli.Option("--limit", cli.positive_int, 20, "records shown"),
    ),
    "check": (
        LEDGER,
        cli.Option("--kind", str, None, "only records of this kind"),
        cli.Option("--command", str.split, None,
                   "only records of this command ('CMD ARG ...')"),
        cli.Option("--window", cli.positive_int, history.DEFAULT_WINDOW,
                   "baseline records"),
        cli.Option("--min-baseline", cli.positive_int, history.MIN_BASELINE,
                   "baseline samples a series needs to be gated"),
        cli.Option("--mad-k", cli.number(float, above=0), history.MAD_K,
                   "tolerance in robust standard deviations"),
        cli.Option("--rel-floor", cli.number(float, low=0), history.REL_FLOOR,
                   "tolerance floor relative to the median"),
    ),
    "append": (
        replace(cli.REPORT, help="report JSON to append (required)"),
        LEDGER,
    ),
}

DASHBOARD_OPTIONS = (
    cli.Option("--out", str, "dashboard.html", "HTML output path"),
    LEDGER,
    cli.Option("--title", str, "repro telemetry", "page title"),
)


def history_main(argv: list[str]) -> int:
    """Entry point for the ``history`` subcommand."""
    args = cli.parse("history", HISTORY_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    ledger = args.ledger
    where = ledger or history.ledger_path()

    if args.verb == "show":
        records = history.read_ledger(ledger)
        if not records:
            print(f"ledger {where} is empty")
            return 0
        for record in records[-args.limit:]:
            print(
                f"{record.get('id', '?'):>16}  {record.get('ts', '?'):<25} "
                f"{record.get('kind', '?'):<10} "
                f"{' '.join(record.get('command', []))} "
                f"({len(record.get('series', {}))} series)"
            )
        print(f"{len(records)} records in {where}")
        return 0

    if args.verb == "append":
        if not args.report:
            return cli.usage_error(
                "history", HISTORY_OPTIONS, "history append needs --report PATH"
            )
        try:
            report = json.loads(open(args.report).read())
        except (OSError, ValueError) as exc:
            print(f"cannot read report {args.report}: {exc}", file=sys.stderr)
            return 1
        record = history.record_from_report(report)
        record_id = history.append_record(record, path=ledger)
        if record_id is None:
            print("history disabled (REPRO_HISTORY=0); nothing appended")
            return 0
        print(
            f"appended {record_id} ({len(record['series'])} series) "
            f"-> {where}"
        )
        return 0

    result = history.check_latest(
        path=ledger,
        kind=args.kind,
        command=args.command,
        window=args.window,
        min_baseline=args.min_baseline,
        mad_k=args.mad_k,
        rel_floor=args.rel_floor,
    )
    if result is None:
        print(
            f"history check: no matching records in {where} "
            "(informational pass)"
        )
        return 0
    print(result.render())
    return 0 if result.ok else 1


def dashboard_main(argv: list[str]) -> int:
    """Entry point for the ``dashboard`` subcommand."""
    from repro.obs.dashboard import write_dashboard

    args = cli.parse("dashboard", DASHBOARD_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    records = history.read_ledger(args.ledger)
    try:
        write_dashboard(args.out, records, title=args.title)
    except OSError as error:
        return cli.unwritable("dashboard", DASHBOARD_OPTIONS, "--out",
                              args.out, error)
    print(f"dashboard ({len(records)} records) -> {args.out}")
    return 0
