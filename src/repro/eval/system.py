"""Full-system evaluation: TP-ISA core + crosspoint ROM + SRAM.

This is Section 8's methodology: the instruction memory is a crosspoint
ROM "just large enough to store exactly as many static instructions as
exist in the program", the data memory an SRAM with "exactly as many
entries as are required by the application", and the core a generated
single-stage netlist.  Dynamic counts come from the instruction-set
simulator; physical characteristics from the netlist analyses and the
memory models.

Timing composition (one memory-memory instruction per cycle):

* core time      = cycles x critical-path delay,
* IM time        = fetches x ROM read latency,
* DM time        = (parallel-read phases + write phases) x RAM latency,

and total execution time is their sum -- matching Figure 8's stacked
execution-time bars.  Energy composes the same way, with memory static
power integrated over the total runtime.

An evaluation has two halves.  :func:`run_program` is the
technology-independent one: one ISS run, kept as a :class:`ProgramRun`
of plain counts.  :func:`compose_system` is the technology-dependent
one: it reads the core's area, power and timing from the one
per-(core, technology) analysis memo, :func:`repro.dse.sweep.core_reports`,
and sizes the memories.  Figure 8 and Table 8 go through
:func:`benchmark_system`, whose run memo (:func:`benchmark_run`) builds
and runs each benchmark version once for every technology and core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.coregen.config import CoreConfig, program_specific_config
from repro.dse.sweep import core_reports
from repro.errors import ConfigError
from repro.isa.analysis import analyze_program
from repro.isa.program import Program
from repro.memory.ram import SramArray
from repro.memory.rom import CrosspointRom
from repro import obs
from repro.pdk import canonical_technology
from repro.programs.suite import build_benchmark
from repro.sim.machine import Machine
from repro.sim.pipeline import cycles_for


@dataclass(frozen=True)
class SystemMetrics:
    """Everything Figure 8 / Table 8 report for one (program, core).

    Areas in m^2, energies in J, times in seconds, power in W.
    """

    program: str
    core_name: str
    technology: str
    program_specific: bool
    # Static instruction/data footprint.
    static_instructions: int
    data_words: int
    # Area breakdown (Figure 8 top).
    core_combinational_area: float
    core_sequential_area: float
    imem_area: float
    dmem_area: float
    # Per-iteration energy breakdown (Figure 8 middle).
    core_combinational_energy: float
    core_sequential_energy: float
    imem_energy: float
    dmem_energy: float
    # Per-iteration execution-time breakdown (Figure 8 bottom).
    core_time: float
    imem_time: float
    dmem_time: float
    # Dynamics.
    cycles: int
    core_fmax: float

    @property
    def total_area(self) -> float:
        return (
            self.core_combinational_area
            + self.core_sequential_area
            + self.imem_area
            + self.dmem_area
        )

    @property
    def core_area(self) -> float:
        return self.core_combinational_area + self.core_sequential_area

    @property
    def total_energy(self) -> float:
        return (
            self.core_combinational_energy
            + self.core_sequential_energy
            + self.imem_energy
            + self.dmem_energy
        )

    @property
    def total_time(self) -> float:
        return self.core_time + self.imem_time + self.dmem_time

    @property
    def average_power(self) -> float:
        return self.total_energy / self.total_time if self.total_time else 0.0


@dataclass(frozen=True)
class ProgramRun:
    """What a system evaluation takes from one ISS run of a program.

    The technology-independent half of :func:`evaluate_system`: plain
    values only, so one run serves both technologies and both the
    standard and the program-specific core, and a memo of many runs
    adds few objects for the garbage collector to walk.

    Attributes:
        name: The program's name.
        static_size: Static instruction count (instruction ROM words).
        data_words: Distinct data words the run touched.
        instructions, taken_branches, raw_hazards: What the pipeline
            cycle model (:func:`repro.sim.pipeline.cycles_for`) reads.
        fetches: Instruction-memory reads.
        read_phases, write_phases: Data-memory access phases.
        memory_accesses: Data-memory reads plus writes.
        specific_config: The program-specific core shrunk from the core
            the program ran on (``None`` when not analysed).
        specific_instruction_bits: Its instruction width (0 when not
            analysed).
    """

    name: str
    static_size: int
    data_words: int
    instructions: int
    taken_branches: int
    raw_hazards: int
    fetches: int
    read_phases: int
    write_phases: int
    memory_accesses: int
    specific_config: CoreConfig | None
    specific_instruction_bits: int


def run_program(
    program: Program, config: CoreConfig, program_specific: bool
) -> ProgramRun:
    """Run ``program`` to its halt on the ISS of a ``config`` core.

    With ``program_specific``, also shrink ``config`` to the program
    (the Section 7 static analysis).
    """
    machine = Machine(program, num_bars=config.num_bars)
    machine.run()
    stats = machine.stats
    data_words = stats.data_words_used()
    specific, instruction_bits = None, 0
    if program_specific:
        analysis = analyze_program(program, data_words=data_words)
        specific = program_specific_config(config, analysis)
        instruction_bits = analysis.instruction_bits
    return ProgramRun(
        name=program.name,
        static_size=program.static_size,
        data_words=data_words,
        instructions=stats.instructions,
        taken_branches=stats.taken_branches,
        raw_hazards=stats.raw_hazards,
        fetches=stats.fetches,
        read_phases=stats.read_phases,
        write_phases=stats.write_phases,
        memory_accesses=stats.memory_reads + stats.memory_writes,
        specific_config=specific,
        specific_instruction_bits=instruction_bits,
    )


@lru_cache(maxsize=256)
def benchmark_run(
    name: str, kernel_width: int, core_width: int, num_bars: int = 2
) -> ProgramRun:
    """The run of one registered benchmark version, built and run once.

    The version is ``build_benchmark(name, kernel_width, core_width,
    num_bars)`` on the single-stage ``core_width``-bit core with
    ``num_bars`` BARs.  Only a native-width version is ever shrunk to a
    program-specific core, so only its run carries the analysis.
    ``repro.exec.clear_caches()`` empties the memo.
    """
    program = build_benchmark(name, kernel_width, core_width, num_bars=num_bars)
    config = CoreConfig(datawidth=core_width, num_bars=num_bars)
    return run_program(program, config, kernel_width == core_width)


def evaluate_system(
    program: Program,
    config: CoreConfig | None = None,
    technology: str = "EGFET",
    program_specific: bool = False,
    rom_bits_per_cell: int = 1,
) -> SystemMetrics:
    """Evaluate one benchmark on one core with right-sized memories.

    Args:
        program: The benchmark image (must halt under the ISS).
        config: Core configuration; defaults to a standard single-stage
            core at the program's datawidth/BAR count.
        technology: ``"EGFET"``, ``"CNT"``, or the ``"CNT-TFT"`` alias
            (normalized to canonical ``"CNT"`` before caching).
        program_specific: Shrink the core and memories per the
            Section 7 static analysis before evaluating.
        rom_bits_per_cell: Multi-level-cell depth of the instruction
            ROM (the dTree-ROMopt configuration uses 2).
    """
    technology = canonical_technology(technology)
    if config is None:
        config = CoreConfig(
            datawidth=program.datawidth,
            pipeline_stages=1,
            num_bars=max(2, program.num_bars),
        )

    with obs.span(
        "evaluate_system",
        program=program.name,
        design=config.name,
        technology=technology,
    ):
        run = run_program(program, config, program_specific)
        return compose_system(
            run, config, technology, program_specific, rom_bits_per_cell
        )


def benchmark_system(
    name: str,
    kernel_width: int,
    core_width: int,
    num_bars: int = 2,
    technology: str = "EGFET",
    program_specific: bool = False,
    rom_bits_per_cell: int = 1,
) -> SystemMetrics:
    """:func:`evaluate_system` of one benchmark version on its core.

    Equal to ``evaluate_system(build_benchmark(name, kernel_width,
    core_width, num_bars), CoreConfig(datawidth=core_width,
    num_bars=num_bars), ...)``, but the version is built and run once
    (:func:`benchmark_run`) for every technology and core it is
    evaluated on.  ``program_specific`` needs a native-width version.
    """
    technology = canonical_technology(technology)
    config = CoreConfig(datawidth=core_width, num_bars=num_bars)
    run = benchmark_run(name, kernel_width, core_width, num_bars)
    with obs.span(
        "evaluate_system", program=run.name, design=config.name,
        technology=technology,
    ):
        return compose_system(
            run, config, technology, program_specific, rom_bits_per_cell
        )


def compose_system(
    run: ProgramRun,
    config: CoreConfig,
    technology: str,
    program_specific: bool,
    rom_bits_per_cell: int,
) -> SystemMetrics:
    """The technology-dependent half: ``run`` on a ``config`` core with
    right-sized memories, in canonical ``technology``."""
    if program_specific:
        if run.specific_config is None:
            raise ConfigError(f"{run.name}: run has no program-specific analysis")
        config = run.specific_config
        instruction_bits = run.specific_instruction_bits
    else:
        instruction_bits = config.instruction_bits

    reports = core_reports(config, technology)
    data_words = max(1, run.data_words)
    rom = CrosspointRom(
        words=max(1, run.static_size),
        bits_per_word=instruction_bits,
        bits_per_cell=rom_bits_per_cell,
        technology=technology,
    )
    ram = SramArray(
        words=data_words, bits_per_word=config.datawidth, technology=technology
    )

    cycles = cycles_for(run, config.pipeline_stages)
    core_time = cycles * reports.timing.critical_path_delay
    imem_time = run.fetches * rom.read_delay
    dmem_time = (run.read_phases + run.write_phases) * ram.access_delay
    total_time = core_time + imem_time + dmem_time

    scale = cycles  # core energy scales with clocked cycles
    return SystemMetrics(
        program=run.name,
        core_name=config.name + ("_ps" if program_specific else ""),
        technology=technology,
        program_specific=program_specific,
        static_instructions=run.static_size,
        data_words=data_words,
        core_combinational_area=reports.area.combinational,
        core_sequential_area=reports.area.sequential,
        imem_area=rom.area,
        dmem_area=ram.area,
        core_combinational_energy=scale * reports.power.combinational_energy,
        core_sequential_energy=scale * reports.power.sequential_energy,
        imem_energy=run.fetches * rom.read_energy + rom.static_power * total_time,
        dmem_energy=(
            run.memory_accesses * ram.access_energy
            + ram.static_power * total_time
        ),
        core_time=core_time,
        imem_time=imem_time,
        dmem_time=dmem_time,
        cycles=cycles,
        core_fmax=reports.timing.fmax,
    )
