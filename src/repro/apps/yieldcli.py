"""``python -m repro yield``: fleet-scale Monte-Carlo yield campaigns.

Prints a virtual fleet of each named core configuration and reports
its fmax distribution, application-level functional yield, printed
cost per working unit, and battery-lifetime quantiles::

    python -m repro yield p1_8_2 --instances 100000 --jobs 2
    python -m repro yield p1_4_2 p1_8_2 --instances 20000 --sigma 0.3
    python -m repro yield p1_8_2 --device-yield 0.99995 --battery "Blue Spark 30"

Results are bit-identical for any ``--jobs`` (see
``docs/PARALLELISM.md``); ``--report PATH`` writes a full run report
(fed into the history ledger), and every campaign appends one compact
``yield`` history record so throughput and yield trend across runs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from repro import cli

YIELD_OPTIONS = (
    cli.CONFIGS,
    cli.Option("--instances", cli.positive_int, 10_000, "units per design"),
    cli.JOBS,
    replace(cli.SEED, default=0xBEEF),
    cli.Option("--sigma", cli.number(float, low=0), 0.2,
               "lognormal sigma of per-cell delay"),
    cli.Option("--device-yield", cli.number(float, above=0, high=1), 0.9999,
               "probability that one printed device works"),
    cli.TECHNOLOGY,
    cli.PROGRAM,
    cli.WIDTH,
    cli.Option("--lanes", cli.positive_int, None,
               "units per functional pass (None: engine default)"),
    cli.Option("--block", cli.positive_int, None,
               "units per timing block (None: engine default)"),
    cli.Option("--duty", cli.number(float, above=0, high=1), 0.01,
               "duty cycle for lifetime"),
    cli.Option("--battery", str, "Molex", "battery for lifetime"),
    cli.REPORT,
)


def yield_main(argv: list[str]) -> int:
    """Entry point for the ``yield`` subcommand."""
    args = cli.parse("yield", YIELD_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args

    from repro import obs
    from repro.coregen.config import config_from_name
    from repro.errors import ReproError
    from repro.mc.engine import DEFAULT_LANES, YieldSpec, run_yield_campaign
    from repro.mc.timing import DEFAULT_BLOCK
    from repro.obs import history

    started = time.perf_counter()
    campaigns: dict[str, dict] = {}
    try:
        for name in args.configs:
            spec = YieldSpec(
                config=config_from_name(name),
                technology=args.technology,
                program_name=args.program,
                program_width=args.width,
                sigma=args.sigma,
                device_yield=args.device_yield,
                seed=args.seed,
                lanes=args.lanes or DEFAULT_LANES,
                block=args.block or DEFAULT_BLOCK,
                duty=args.duty,
                battery_name=args.battery,
            )
            report = run_yield_campaign(spec, args.instances, jobs=args.jobs)
            print(report.render())
            campaigns[report.design] = report.to_dict()
            history.append_record(
                history.build_record(
                    "yield",
                    ["yield", report.design, report.technology, report.program],
                    {
                        "mc.seconds": round(report.wall_seconds, 3),
                        "mc.instances_per_s": round(
                            report.instances_per_second, 1
                        ),
                        "mc.functional_yield": round(
                            report.functional_yield, 4
                        ),
                        "mc.fmax_p05": round(report.fmax_quantiles[0.05], 2),
                    },
                )
            )
    except ReproError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    if args.report:
        wall = time.perf_counter() - started
        run_report = obs.build_run_report(
            ["yield"] + list(argv),
            wall,
            extra={"yield_campaigns": campaigns},
        )
        try:
            obs.write_run_report(args.report, run_report)
        except OSError as error:
            return cli.unwritable("yield", YIELD_OPTIONS, "--report",
                                  args.report, error)
        print(f"report: {args.report}")
    return 0
