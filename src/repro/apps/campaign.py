"""``python -m repro campaign``: fault campaigns from the command line.

Runs a stuck-at fault-injection campaign for one benchmark on one
core configuration, on any of the three campaign backends::

    python -m repro campaign --program mult --width 8 --backend numpy
    python -m repro campaign --backend batched --stride 4 --jobs 2
    python -m repro campaign --config p1_8_2 --backend interpreted --max-faults 20

and ``python -m repro campaign --verify-suite`` lane-packs every
native-width benchmark through the selected lane backend and diffs
each lane against the instruction-set simulator (the
:func:`repro.eval.suite.verify_suite` hook).

See ``docs/MODELS.md`` ("Simulation backends") for how to pick a
backend and what a campaign's lanes carry.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from repro import cli
from repro.errors import ReproError

#: Backends --verify-suite accepts: the lane-packed ones.
LANE_BACKENDS = ("numpy", "batched")

CAMPAIGN_OPTIONS = (
    cli.PROGRAM,
    cli.WIDTH,
    replace(cli.CONFIG, default=None,
            help="core pP_D_B (None: one-stage core of --width bits)"),
    cli.Option("--backend", str, "numpy", "simulation backend",
               choices=(*LANE_BACKENDS, "interpreted")),
    cli.Option("--stride", cli.positive_int, 8, "inject every N-th fault"),
    cli.Option("--max-faults", cli.positive_int, None, "fault cap"),
    cli.Option("--lanes", cli.positive_int, None,
               "faults per lane pass (None: backend default)"),
    cli.JOBS,
    cli.Option("--verify-suite", None, False,
               "diff every native benchmark on a lane backend vs the ISS"),
)


def campaign_target(program_name: str, width: int, config_name: str | None):
    """The program and core one campaign runs: ``(program, config, design)``.

    Without a configuration, ``config`` is ``None`` and the design is
    the single-stage core :func:`run_fault_campaign` builds for the
    kernel.  Shared by the CLI and the ``campaign`` serve kind.
    """
    from repro.coregen.config import CoreConfig, config_from_name
    from repro.programs import build_benchmark

    config = config_from_name(config_name) if config_name else None
    program = build_benchmark(
        program_name, width, config.datawidth if config else width
    )
    design = config.name if config else CoreConfig(
        datawidth=program.datawidth,
        pipeline_stages=1,
        num_bars=max(2, program.num_bars),
    ).name
    return program, config, design


def campaign_main(argv: list[str]) -> int:
    """Entry point for the ``campaign`` subcommand."""
    args = cli.parse("campaign", CAMPAIGN_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    backend = args.backend

    if args.verify_suite:
        from repro.eval.suite import verify_suite
        from repro.errors import SimulationError

        if backend not in LANE_BACKENDS:
            return cli.usage_error(
                "campaign", CAMPAIGN_OPTIONS,
                f"--verify-suite needs a lane backend "
                f"({' | '.join(LANE_BACKENDS)}), got {backend!r}",
            )
        started = time.perf_counter()
        try:
            verified = verify_suite(backend)
        except SimulationError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        total = sum(verified.values())
        for name, count in verified.items():
            print(f"  {name}: {count} benchmarks agree with the ISS")
        print(
            f"verify-suite[{backend}]: {total} native benchmarks verified "
            f"in {elapsed:.2f}s"
        )
        return 0

    from repro.coregen.fault_test import run_fault_campaign

    try:
        program, config, design = campaign_target(
            args.program, args.width, args.config
        )
        started = time.perf_counter()
        result = run_fault_campaign(
            program,
            config=config,
            stride=args.stride,
            max_faults=args.max_faults,
            backend=backend,
            lanes=args.lanes,
            jobs=args.jobs,
        )
    except ReproError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    rate = result.total / elapsed if elapsed > 0 else float("inf")
    print(
        f"campaign[{program.name} @ {design}, {backend}]: "
        f"{result.detected}/{result.total} faults detected "
        f"({100.0 * result.coverage:.1f}% coverage) "
        f"in {elapsed:.2f}s ({rate:.0f} faults/s)"
    )
    # One compact ledger record per campaign so faults/sec trends
    # across runs (no-op under REPRO_HISTORY=0).
    from repro.obs import history

    history.append_record(
        history.build_record(
            "campaign",
            ["campaign", program.name, design, backend],
            {
                "campaign.seconds": round(elapsed, 3),
                "campaign.faults_per_s": round(rate, 1)
                if elapsed > 0
                else 0.0,
                "campaign.coverage": round(result.coverage, 4),
                "campaign.faults": result.total,
            },
        )
    )
    if result.undetected_sites:
        shown = ", ".join(
            f"i{fault.instance_index}@{fault.stuck_value}"
            for fault in result.undetected_sites[:8]
        )
        more = len(result.undetected_sites) - 8
        if more > 0:
            shown += f", ... {more} more"
        print(f"  undetected: {shown}")
    return 0
