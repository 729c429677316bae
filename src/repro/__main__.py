"""Command-line regeneration of the paper's tables and figures.

Usage::

    python -m repro list                # what can be regenerated
    python -m repro table2             # one table
    python -m repro table8 fig7        # several at once
    python -m repro all                # everything (takes ~a minute)
    python -m repro export [DIR]       # write release artifacts
                                       # (.lib, .v, .hex, dot maps)
    python -m repro stats              # run a probe workload, print
                                       # the metrics snapshot
    python -m repro --profile table7   # trace the run; write
                                       # RUN_REPORT.json + summary
    python -m repro --profile --trace-out run.jsonl all
                                       # also export Chrome-trace JSONL
    python -m repro --jobs 4 fig7      # fan sweeps/campaigns across
                                       # 4 worker processes
    python -m repro verify --count 50  # differential fuzz campaign
    python -m repro lint --all         # static netlist lint
                                       # (see docs/VERIFY.md)
    python -m repro campaign --program mult --backend numpy
                                       # stuck-at fault campaign on the
                                       # vectorized bit-slice backend
    python -m repro campaign --verify-suite --backend numpy
                                       # lane-pack every native
                                       # benchmark; diff vs the ISS
    python -m repro profile-design p1_8_2 --program crc8 --vcd out.vcd
                                       # waveforms + per-module /
                                       # per-instruction energy
                                       # (see docs/OBSERVABILITY.md)
    python -m repro yield p1_8_2 --instances 100000 --jobs 2
                                       # fleet-scale Monte-Carlo yield
                                       # campaign: fmax distribution,
                                       # functional yield, cost and
                                       # lifetime per printed unit
    python -m repro place p1_8_2 --fabric small --seed 0
                                       # printed-fabric placement with
                                       # wire RC back-annotation:
                                       # layout.html + wire-aware vs
                                       # wire-blind PPA
    python -m repro history check      # regression sentinel over the
                                       # cross-run telemetry ledger
    python -m repro history show       # recent ledger records
    python -m repro dashboard --out dashboard.html
                                       # self-contained HTML dashboard
                                       # (inline-SVG trend sparklines)
    python -m repro serve --port 8097 --jobs 2
                                       # long-running DSE service:
                                       # job queue over the drivers,
                                       # /metrics + per-job
                                       # traces (see docs/SERVE.md)

``REPRO_TRACE=1`` in the environment is equivalent to ``--profile``;
``REPRO_JOBS=N`` is equivalent to ``--jobs N``.  Every profiled run
and bench emission also appends one compact record to the cross-run
history ledger under ``$REPRO_HISTORY_DIR`` (default
``~/.cache/repro/history``; opt out with ``REPRO_HISTORY=0``).  See
``docs/OBSERVABILITY.md`` for the report/ledger schemas and
``docs/PARALLELISM.md`` for the execution/caching model.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from repro import obs
from repro.cli import JOBS, Option, parse, unwritable, usage_error
from repro.eval import figures, tables
from repro.eval.report import render_table
from repro.units import to_cm2, to_mW

#: Default run-report path (repository root when run from there).
DEFAULT_REPORT = "RUN_REPORT.json"


def _print_fig4(technology: str) -> None:
    series = figures.fig4_lifetime(technology)
    rows = [
        (s.core, s.battery, f"{s.points[0][1]:.2f}", f"{s.points[-1][1]:.0f}")
        for s in series
    ]
    print(render_table(
        f"Lifetime hours in {technology} (duty 1.0 -> 0.001)",
        ("Core", "Battery", "Full duty", "Duty 0.001"),
        rows,
    ))


def _print_fig7(technology: str) -> None:
    points = figures.fig7_design_space(technology)
    rows = [
        (p.name, f"{p.fmax:.2f}", to_cm2(p.area), to_mW(p.power_at_fmax),
         p.gate_count, p.dff_count)
        for p in points
    ]
    print(render_table(
        f"Figure 7: design space in {technology}",
        ("Core", "Fmax Hz", "Area cm2", "Power mW", "Gates", "DFFs"),
        rows,
    ))


def _print_fig8() -> None:
    for name, width in (("mult", 8), ("dTree", 8)):
        results = figures.fig8_benchmark(name, width)
        rows = [
            (m.core_name, to_cm2(m.total_area), m.total_energy * 1e3,
             f"{m.total_time:.2f}")
            for m in results
        ]
        print(render_table(
            f"Figure 8: {name}{width} (EGFET)",
            ("Core", "Area cm2", "Energy mJ", "Time s"),
            rows,
        ))


def export_artifacts(directory: str = "build") -> list[str]:
    """Write the open-source release artifacts to ``directory``.

    Produces the deliverables the paper open-sourced (or that a
    physical flow consumes): Liberty cell libraries, structural
    Verilog for every sweep core, and per-benchmark ROM images as
    Intel HEX plus crosspoint dot-map statistics.
    """
    from repro.coregen.config import CoreConfig, standard_sweep
    from repro.coregen.generator import generate_core
    from repro.coregen.isa_map import encode_program_for_core
    from repro.isa.hexfile import dump_hex
    from repro.memory.romimage import dot_map
    from repro.netlist.verilog import dump_verilog
    from repro.pdk import cnt_tft_library, dump_liberty, egfet_library
    from repro.programs import BENCHMARKS, build_benchmark

    root = Path(directory)
    written: list[str] = []

    def write(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        written.append(str(path))

    for library in (egfet_library(), cnt_tft_library()):
        write(root / "lib" / f"{library.name}.lib", dump_liberty(library))

    for config in standard_sweep():
        write(
            root / "rtl" / f"{config.name}.v",
            dump_verilog(generate_core(config)),
        )

    config = CoreConfig(datawidth=8)
    dot_stats = ["benchmark words dots density"]
    for name in BENCHMARKS:
        program = build_benchmark(name, 8, 8)
        words = encode_program_for_core(program, config)
        write(root / "rom" / f"{name}8.hex", dump_hex(words))
        image = dot_map(words, bits_per_word=24)
        dot_stats.append(
            f"{name} {len(words)} {image.printed_dots} {image.dot_density:.3f}"
        )
    write(root / "rom" / "dotmap_stats.txt", "\n".join(dot_stats) + "\n")
    return written


TARGETS = {
    "table1": lambda: print(render_table("Table 1", *tables.table1_technologies())),
    "table2": lambda: print(render_table("Table 2", *tables.table2_standard_cells())),
    "table3": lambda: print(render_table("Table 3", *tables.table3_applications())),
    "table4": lambda: print(render_table("Table 4", *tables.table4_baseline_cores())),
    "table5": lambda: print(render_table("Table 5", *tables.table5_imem_overhead())),
    "table6": lambda: print(render_table("Table 6", *tables.table6_memory_devices())),
    "table7": lambda: print(render_table("Table 7", *tables.table7_program_specific())),
    "table8": lambda: print(render_table("Table 8", *tables.table8_battery_iterations())),
    "fig4": lambda: _print_fig4("EGFET"),
    "fig5": lambda: _print_fig4("CNT-TFT"),
    "fig7": lambda: _print_fig7("EGFET"),
    "fig8": _print_fig8,
}


def run_stats_probe() -> None:
    """Exercise the instrumented flow so ``stats`` has data to show.

    Runs one gate-level co-simulation (compiling the netlist, ticking
    the simulator) plus a repeated design evaluation, which together
    touch the compile cache, the elaboration memo, the ISS, and the
    cycle counters.
    """
    from repro.coregen.cosim import cosim_verify
    from repro.coregen.generator import generate_core
    from repro.dse.sweep import evaluate_design
    from repro.coregen.config import CoreConfig
    from repro.netlist.sim import CycleSimulator
    from repro.programs import build_benchmark

    program = build_benchmark("mult", 8, 8)
    mismatches = cosim_verify(program)
    if mismatches:  # pragma: no cover - would mean a broken core
        print(f"warning: cosim reported {len(mismatches)} mismatches",
              file=sys.stderr)
    config = CoreConfig(datawidth=8)
    # Second consumers of the same design: the elaboration memo, the
    # compiled-code cache, and the evaluation cache all register hits.
    CycleSimulator(generate_core(config), backend="compiled")
    evaluate_design(config, "EGFET")
    evaluate_design(config, "EGFET")


#: Subcommand -> ``module:function`` of its entry point, imported on use
#: so a table run does not pay for the service or verifier imports.
COMMANDS = {
    "verify": "repro.verify.cli:verify_main",
    "lint": "repro.verify.cli:lint_main",
    "campaign": "repro.apps.campaign:campaign_main",
    "yield": "repro.apps.yieldcli:yield_main",
    "place": "repro.apps.place:place_main",
    "profile-design": "repro.apps.profile:profile_main",
    "history": "repro.apps.history:history_main",
    "dashboard": "repro.apps.history:dashboard_main",
    "serve": "repro.serve.cli:serve_main",
}

OPTIONS = (
    Option("--profile", None, False,
           "trace the run; write a run report and print its summary"),
    JOBS,
    Option("--trace-out", str, None,
           "also export the trace (.json array, else JSONL)"),
    Option("--report-out", str, DEFAULT_REPORT, "run report path"),
    Option("targets", str, ["list"], f"list, all, export [DIR], stats or "
           f"{', '.join(TARGETS)}; or one of the commands "
           f"{', '.join(COMMANDS)} (each takes --help)", many=True),
)


def main(argv: list[str]) -> int:
    if argv and argv[0] in COMMANDS:
        module, _, function = COMMANDS[argv[0]].partition(":")
        return getattr(importlib.import_module(module), function)(argv[1:])

    args = parse("", OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    profile = args.profile or obs.enabled()
    if args.jobs is not None:
        from repro.exec import set_default_jobs

        set_default_jobs(args.jobs)
    requests = args.targets
    if requests == ["list"]:
        print("regenerable results:", " ".join(TARGETS), "all export stats")
        return 0

    if profile:
        obs.enable()
    start = time.perf_counter()

    if requests[0] == "export":
        directory = requests[1] if len(requests) > 1 else "build"
        with obs.span("export", directory=directory):
            written = export_artifacts(directory)
        print(f"wrote {len(written)} artifacts under {directory}/")
        return _finish(["export", directory], start, args, profile)
    if requests[0] == "stats":
        # Metrics are in-process, so the stats subcommand generates its
        # own activity: enable collection, run the probe, print.
        obs.enable()
        with obs.span("stats_probe"):
            run_stats_probe()
        print(obs.render_metrics(obs.snapshot()))
        return _finish(["stats"], start, args, profile)

    if requests == ["all"]:
        requests = list(TARGETS)
    unknown = [r for r in requests if r not in TARGETS]
    if unknown:
        return usage_error("", OPTIONS, (
            f"unknown target(s): {' '.join(unknown)} (regenerable results: "
            f"{' '.join(TARGETS)} all export stats)"
        ))
    for request in requests:
        with obs.span(request):
            TARGETS[request]()
    return _finish(requests, start, args, profile)


def _finish(command: list[str], start: float, args, profile: bool) -> int:
    """Emit the run report / trace export for profiled invocations."""
    if not profile:
        return 0
    wall = time.perf_counter() - start
    report = obs.build_run_report(command, wall)
    try:
        path = obs.write_run_report(args.report_out, report)
    except OSError as error:
        return unwritable("", OPTIONS, "--report-out", args.report_out, error)
    print(obs.render_run_report(report))
    print(f"run report -> {path}")
    if args.trace_out:
        # Suffix picks the format: .json = ready-to-load JSON array,
        # anything else = streaming JSONL (see obs.export_trace).
        try:
            count = obs.export_trace(args.trace_out)
        except OSError as error:
            return unwritable("", OPTIONS, "--trace-out", args.trace_out, error)
        print(f"trace ({count} spans) -> {args.trace_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
