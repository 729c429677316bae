"""``python -m repro profile-design``: profile a core running a program.

The observability counterpart to co-simulation: instead of asking *is
the core correct*, ask *where do its cycles and energy go*.  One
profiling run drives a generated core through a benchmark on the
interpreted gate-level simulator -- the one that counts toggles and
hosts probes -- with probes attached (:mod:`repro.netlist.probe`) and
produces:

* a per-module / per-cell-type energy attribution
  (:func:`repro.netlist.power.attributed_power_report`) whose buckets
  sum bit-exactly to the measured total,
* a per-instruction profile -- cycles-per-PC and energy-per-PC
  histograms annotated with disassembly, rendered as a
  flamegraph-style text breakdown and serialized as JSON,
* optionally a VCD waveform of the architectural nets (PC, flags,
  BARs, memory bus) for any external wave viewer.

Usage::

    python -m repro profile-design p1_8_2 --program crc8
    python -m repro profile-design p1_8_2 --vcd out.vcd \\
        --energy-report energy.json --top 8
    python -m repro profile-design p1_8_2 p2_8_2 p1_16_2 --jobs 3
        Several configs fan across worker processes
        (:func:`repro.exec.parallel_map`); per-config output paths get
        a ``.<config>`` suffix.

Profiled invocations (``--profile`` or an enabled obs layer) fold the
profiles into ``RUN_REPORT.json`` under the v2 schema's
``design_profiles`` key (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

from repro import cli
from repro.coregen.config import CoreConfig, config_from_name
from repro.coregen.cosim import CoSimHarness, run_to_halt
from repro.errors import ConfigError, ProgramError, SimulationError
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span

_PROFILE_RUNS = _obs_counter("profile.design_runs")

#: Schema tag stamped into every profile dict (and the energy JSON).
PROFILE_SCHEMA = "repro.apps.design_profile/v1"

#: Probe groups recorded into the VCD by default: the architectural
#: state plus the memory/instruction bus.
DEFAULT_PROBE_GROUPS = ("pc", "flags", "bars", "bus")


def _regex(text: str) -> str:
    try:
        re.compile(text)
    except re.error as error:
        raise ValueError(f"bad regular expression {text!r}: {error}") from None
    return text


PROFILE_OPTIONS = (
    replace(cli.CONFIGS, default=[cli.CONFIG.default]),
    replace(cli.PROGRAM, default="crc8"),
    cli.TECHNOLOGY,
    cli.Option("--vcd", str, None, "write a waveform of the probed nets"),
    cli.Option("--energy-report", str, None, "write the profile JSON here"),
    cli.Option("--top", cli.positive_int, 10, "hottest instructions shown"),
    cli.JOBS,
    cli.Option("--max-cycles", cli.positive_int, 200_000, "cycle bound"),
    cli.Option("--trace-maxlen", cli.positive_int, None,
               "keep the last N fetches (None: all)"),
    cli.Option("--probe", cli.comma_list(), None,
               "extra nets to probe, comma-separated; repeatable", many=True),
    cli.Option("--probe-regex", _regex, None, "also probe buses matching"),
    cli.Option("--profile", None, False, "fold profiles into a run report"),
    cli.Option("--report-out", str, "RUN_REPORT.json", "run report path"),
)


def _benchmark_for(name: str, config: CoreConfig):
    """Build benchmark ``name`` at the widest kernel ``config`` runs.

    Kernels narrower than the core emulate the paper's sub-word
    workloads; profiling wants the *native* fit, so the widest
    supported kernel no wider than the datapath is chosen (falling
    back to the narrowest runnable kernel for wide cores running
    fixed-width programs such as ``crc8``).
    """
    from repro.programs import build_benchmark, runnable_configurations

    widths = sorted(
        kernel
        for kernel, core in runnable_configurations(name)
        if core == config.datawidth
    )
    if not widths:
        raise ProgramError(
            f"{name} does not run on a {config.datawidth}-bit core"
        )
    native = [w for w in widths if w <= config.datawidth]
    kernel_width = native[-1] if native else widths[0]
    return build_benchmark(
        name, kernel_width, config.datawidth, num_bars=config.num_bars
    )


def profile_design(
    config: CoreConfig,
    program_name: str = "crc8",
    technology: str = "EGFET",
    max_cycles: int = 200_000,
    vcd_path=None,
    top: int = 10,
    trace_maxlen: int | None = None,
    probe_names=(),
    probe_regex: str | None = None,
    probe_groups=DEFAULT_PROBE_GROUPS,
) -> dict:
    """Profile one core/program pair; returns a JSON-serializable dict.

    Args:
        config: The core to generate and simulate.
        program_name: Benchmark to run (see :data:`repro.programs.BENCHMARKS`).
        technology: ``"EGFET"`` or ``"CNT-TFT"`` cell energies.
        max_cycles: Simulation bound before giving up.
        vcd_path: When set, write a VCD of the probed nets there.
        top: Instructions kept in the per-instruction section.
        trace_maxlen: Optional :class:`~repro.sim.trace.FetchTrace`
            window bound for very long runs.
        probe_names / probe_regex / probe_groups: Probe selection
            forwarded to :func:`repro.netlist.probe.resolve_probes`.

    The returned dict carries :data:`PROFILE_SCHEMA`, the simulator
    that produced it (``"backend": "interpreted"``), the attribution
    dicts (which sum bit-exactly to ``energy_per_cycle`` -- see
    :meth:`repro.netlist.power.AttributedPowerReport.conservation_error`),
    the per-instruction histogram, and trace-window accounting.
    """
    from repro.isa.disasm import disassemble
    from repro.netlist.power import attributed_power_report
    from repro.netlist.probe import (
        InstructionEnergyProfiler,
        WaveProbe,
        resolve_probes,
    )
    from repro.pdk import technology_library
    from repro.sim.trace import FetchTrace

    library = technology_library(technology)
    program = _benchmark_for(program_name, config)
    with _obs_span(
        "profile_design",
        design=config.name,
        program=program.name,
        technology=library.name,
    ):
        _PROFILE_RUNS.inc()
        harness = CoSimHarness(program, config)
        netlist = harness.netlist
        signals = resolve_probes(
            netlist,
            names=probe_names,
            regex=probe_regex,
            groups=probe_groups,
        )
        wave = WaveProbe(netlist, signals) if vcd_path is not None else None
        pc_signal = resolve_probes(netlist, groups=("pc",))[0]
        profiler = InstructionEnergyProfiler(
            netlist,
            library,
            pc_signal.nets,
            trace=FetchTrace(maxlen=trace_maxlen),
        )
        if wave is not None:
            harness.sim.attach_probe(wave)
        harness.sim.attach_probe(profiler)
        run_to_halt(harness, max_cycles)

        cycles = harness.sim.cycles
        report = attributed_power_report(
            netlist, library, harness.sim.toggle_counts(), cycles
        )
        total_energy = profiler.total_energy
        instructions = []
        for pc, energy in profiler.energy_ranking(top=top):
            if pc < len(program.instructions):
                text = disassemble(program.instructions[pc])
            else:
                text = "(halt loop)"
            instructions.append(
                {
                    "pc": pc,
                    "disasm": text,
                    "cycles": profiler.cycles_by_pc[pc],
                    "energy": energy,
                    "share": energy / total_energy if total_energy else 0.0,
                }
            )
        profile = {
            "schema": PROFILE_SCHEMA,
            "design": config.name,
            "program": program.name,
            "technology": library.name,
            "backend": "interpreted",
            "cycles": cycles,
            "energy_per_cycle": report.total.energy_per_cycle,
            "total_energy": total_energy,
            "activity": report.total.activity,
            "static_only_cells": report.static_only_cells,
            "by_module": report.by_module,
            "by_cell": report.by_cell,
            "toggles_by_module": report.toggles_by_module,
            "instructions": instructions,
            "trace": {
                "recorded": profiler.trace.recorded,
                "dropped": profiler.trace.dropped,
                "unique_addresses": profiler.trace.unique_addresses(),
            },
            "vcd": None,
        }
        if wave is not None:
            path = wave.write(vcd_path)
            profile["vcd"] = str(path)
        return profile


def _bar(share: float, width: int = 24) -> str:
    """Flamegraph-style share bar: ``#`` per ``1/width`` of the total."""
    return "#" * max(0, round(share * width))


def render_profile(profile: dict) -> str:
    """Terminal rendering of one :func:`profile_design` result."""
    from repro.eval.report import render_table
    from repro.units import to_nJ

    head = (
        f"{profile['design']} running {profile['program']} "
        f"({profile['technology']}, {profile['backend']}): "
        f"{profile['cycles']} cycles, "
        f"{to_nJ(profile['energy_per_cycle']):.1f} nJ/cycle, "
        f"activity {profile['activity']:.3f}, "
        f"{profile['static_only_cells']} static-only cells"
    )
    total = profile["energy_per_cycle"] or 1.0
    module_rows = [
        (
            name,
            f"{to_nJ(energy):.2f}",
            f"{100 * energy / total:.1f}%",
            _bar(energy / total),
        )
        for name, energy in sorted(
            profile["by_module"].items(), key=lambda kv: -kv[1]
        )
    ]
    modules = render_table(
        "Energy by module (nJ/cycle)",
        ("Module", "Energy", "Share", ""),
        module_rows,
    )
    instr_rows = [
        (
            entry["pc"],
            entry["disasm"],
            entry["cycles"],
            f"{to_nJ(entry['energy']):.1f}",
            f"{100 * entry['share']:.1f}%",
            _bar(entry["share"]),
        )
        for entry in profile["instructions"]
    ]
    instrs = render_table(
        "Hottest instructions (total nJ)",
        ("PC", "Instruction", "Cycles", "Energy", "Share", ""),
        instr_rows,
    )
    parts = [head, modules, instrs]
    if profile["trace"]["dropped"]:
        parts.append(
            f"note: trace window dropped {profile['trace']['dropped']} of "
            f"{profile['trace']['recorded']} fetches; instruction counts "
            "cover the retained tail only"
        )
    if profile["vcd"]:
        parts.append(f"waveform -> {profile['vcd']}")
    return "\n".join(parts)


def _profile_task(task: tuple) -> dict:
    """Picklable worker for :func:`profile_designs`: one (config, options)."""
    config, options = task
    return profile_design(config, **options)


def profile_designs(
    configs,
    jobs: int | None = None,
    per_config_options=None,
    **options,
) -> list[dict]:
    """Profile several configs, fanning across worker processes.

    Args:
        configs: :class:`CoreConfig` instances to profile.
        jobs: Worker processes (defaults to the session ``--jobs``).
        per_config_options: Optional per-config dict overrides (same
            length as ``configs``) -- e.g. distinct ``vcd_path`` values.
        **options: Shared :func:`profile_design` keyword arguments.

    Returns:
        One profile dict per config, in input order.
    """
    from repro.exec import parallel_map

    configs = list(configs)
    overrides = list(per_config_options or [{}] * len(configs))
    if len(overrides) != len(configs):
        raise ConfigError(
            f"{len(overrides)} option overrides for {len(configs)} configs"
        )
    tasks = [
        (config, {**options, **extra})
        for config, extra in zip(configs, overrides)
    ]
    return parallel_map(_profile_task, tasks, jobs=jobs, label="profile_design")


def _suffixed(path: str, name: str, multiple: bool) -> str:
    """Insert ``.name`` before the extension when several configs run."""
    if not multiple:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.{name}{p.suffix}"))


def profile_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro profile-design ...``."""
    import time

    from repro import obs

    args = cli.parse("profile-design", PROFILE_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    configs = [config_from_name(name) for name in args.configs]

    profiled = args.profile or obs.enabled()
    if profiled:
        obs.enable()
    start = time.perf_counter()

    multiple = len(configs) > 1
    overrides = [
        {
            "vcd_path": (
                _suffixed(args.vcd, c.name, multiple) if args.vcd else None
            ),
        }
        for c in configs
    ]
    try:
        profiles = profile_designs(
            configs,
            jobs=args.jobs,
            per_config_options=overrides,
            program_name=args.program,
            technology=args.technology,
            max_cycles=args.max_cycles,
            top=args.top,
            trace_maxlen=args.trace_maxlen,
            probe_names=tuple(args.probe or ()),
            probe_regex=args.probe_regex,
        )
    except (ConfigError, ProgramError, SimulationError) as error:
        print(f"profile-design: {error}", file=sys.stderr)
        return 1

    for config, profile in zip(configs, profiles):
        print(render_profile(profile))
        if args.energy_report:
            path = Path(_suffixed(args.energy_report, config.name, multiple))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(profile, indent=2) + "\n")
            print(f"energy report -> {path}")

    if profiled:
        wall = time.perf_counter() - start
        report = obs.build_run_report(
            ["profile-design", *args.configs], wall, profiles=profiles
        )
        try:
            path = obs.write_run_report(args.report_out, report)
        except OSError as error:
            return cli.unwritable("profile-design", PROFILE_OPTIONS,
                                  "--report-out", args.report_out, error)
        print(f"run report -> {path}")
    return 0
