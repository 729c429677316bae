"""``python -m repro place``: printed-fabric placement + wire-aware PPA.

Places one or more named core configurations onto a printed fabric,
derives per-net wire RC from the placed wirelengths, and reports the
wire-blind vs wire-aware timing/energy numbers side by side::

    python -m repro place p1_8_2 --fabric small --seed 0
    python -m repro place p1_8_2 p2_8_2 p1_16_2 --fabric medium --jobs 2
    python -m repro place p3_16_4 --fabric auto --technology CNT

Each placed design gets a self-contained ``layout_<design>.html``
layout/heatmap page (just ``layout.html`` for a single design) plus a
fit report on stdout; a design that overflows its fabric exits 1 with
per-kind overflow diagnostics.  Placement is deterministic given
``--seed`` and bit-identical for any ``--jobs`` (configs fan out via
:func:`repro.exec.parallel_map`; each placement is single-process).
``--report PATH`` writes a full run report, and every placement
appends one compact ``place`` record to the history ledger so
placement quality trends -- and regresses loudly -- across runs.
"""

from __future__ import annotations

import sys
import time
from functools import partial

from repro import cli
from repro.place.fabric import NAMED_FABRICS
from repro.place.placer import DEFAULT_SWEEPS

PLACE_OPTIONS = (
    cli.CONFIGS,
    cli.Option("--fabric", str, "medium", "fabric (auto: smallest that fits)",
               choices=(*NAMED_FABRICS, "auto")),
    cli.TECHNOLOGY,
    cli.SEED,
    cli.Option("--sweeps", cli.number(int, low=0), DEFAULT_SWEEPS,
               "annealing sweeps"),
    cli.JOBS,
    cli.Option("--out", str, ".", "directory for layout*.html"),
    cli.REPORT,
)


def _place_one(
    fabric_name: str,
    technology: str,
    seed: int,
    sweeps: int,
    config_name: str,
) -> dict:
    """Place one named config; returns a JSON-ready result dict.

    Module-level so :func:`repro.exec.parallel_map` can pickle it;
    overflow comes back as a ``{"error": ...}`` dict rather than an
    exception so one overflowing config does not abort its siblings.
    """
    from repro.coregen.config import config_from_name
    from repro.coregen.generator import generate_core
    from repro.errors import PlacementError
    from repro.pdk import technology_library
    from repro.place import (
        fabric_for,
        fit_report,
        named_fabric,
        place,
        render_layout,
        wire_aware_ppa,
    )

    started = time.perf_counter()
    netlist = generate_core(config_from_name(config_name))
    if fabric_name == "auto":
        fabric = fabric_for(netlist, technology=technology)
    else:
        fabric = named_fabric(fabric_name, technology=technology)
    fit = fit_report(netlist, fabric)
    if not fit.fits:
        return {
            "design": netlist.name,
            "fabric": fabric.name,
            "technology": fabric.technology,
            "fit": fit.to_dict(),
            "error": fit.render(),
        }
    placement = place(netlist, fabric, seed=seed, sweeps=sweeps)
    library = technology_library(fabric.technology)
    return {
        "design": netlist.name,
        "fabric": fabric.name,
        "technology": fabric.technology,
        "seed": seed,
        "fit": fit.to_dict(),
        "greedy_hpwl_m": placement.greedy_hpwl,
        "hpwl_m": placement.hpwl,
        "improvement_pct": placement.improvement_pct,
        "anneal_moves": placement.anneal_moves,
        "anneal_accepted": placement.anneal_accepted,
        "ppa": wire_aware_ppa(netlist, placement, library),
        "fit_text": fit.render(),
        "layout_html": render_layout(netlist, placement),
        "wall_s": time.perf_counter() - started,
    }


def place_main(argv: list[str]) -> int:
    """Entry point for the ``place`` subcommand."""
    args = cli.parse("place", PLACE_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    configs = args.configs

    from pathlib import Path

    from repro import obs
    from repro.errors import ReproError
    from repro.exec import parallel_map
    from repro.obs import history

    started = time.perf_counter()
    try:
        results = parallel_map(
            partial(_place_one, args.fabric, args.technology, args.seed,
                    args.sweeps),
            configs,
            jobs=args.jobs,
            label="place",
        )
    except ReproError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    failed = False
    placements: dict[str, dict] = {}
    for result in results:
        if "error" in result:
            failed = True
            print(f"FAIL: {result['error']}", file=sys.stderr)
            continue
        print(result["fit_text"])
        ppa = result["ppa"]
        print(
            f"  hpwl: {result['hpwl_m']:.6g} m "
            f"(greedy {result['greedy_hpwl_m']:.6g} m, "
            f"-{result['improvement_pct']:.1f}%)"
        )
        print(
            "  wire-blind: "
            f"delay {ppa['wire_blind']['critical_path_delay']:.6g} s, "
            f"energy {ppa['wire_blind']['energy_per_cycle']:.6g} J"
        )
        print(
            "  wire-aware: "
            f"delay {ppa['wire_aware']['critical_path_delay']:.6g} s "
            f"(+{ppa['delay_overhead_pct']:.2f}%), "
            f"energy {ppa['wire_aware']['energy_per_cycle']:.6g} J "
            f"(+{ppa['energy_overhead_pct']:.2f}%)"
        )
        suffix = "" if len(configs) == 1 else f"_{result['design']}"
        layout = Path(args.out) / f"layout{suffix}.html"
        layout.parent.mkdir(parents=True, exist_ok=True)
        layout.write_text(result.pop("layout_html"), encoding="utf-8")
        print(f"  layout: {layout}")
        design = result["design"]
        placements[design] = {
            key: value for key, value in result.items() if key != "fit_text"
        }
        history.append_record(
            history.build_record(
                "place",
                ["place", design, result["technology"], result["fabric"]],
                {
                    f"place.{design}.hpwl_m": round(result["hpwl_m"], 6),
                    f"place.{design}.improvement_pct": round(
                        result["improvement_pct"], 2
                    ),
                    f"place.{design}.wall_s": round(result["wall_s"], 3),
                },
            )
        )

    if args.report:
        wall = time.perf_counter() - started
        run_report = obs.build_run_report(
            ["place"] + list(argv),
            wall,
            extra={"placements": placements},
        )
        try:
            obs.write_run_report(args.report, run_report)
        except OSError as error:
            return cli.unwritable("place", PLACE_OPTIONS, "--report",
                                  args.report, error)
        print(f"report: {args.report}")
    return 1 if failed else 0
