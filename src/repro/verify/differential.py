"""Differential execution: one program, every simulator, zero excuses.

The strongest correctness evidence the repository can produce is that
*all* execution models agree on arbitrary programs across the whole
configuration grid:

* the instruction-set simulator (:mod:`repro.sim.machine`) -- the
  architectural reference;
* the interpreted gate-level simulator (the reference);
* :class:`~repro.netlist.compile.BitParallelSimulator` lanes (the
  compiled kernel; many programs through one netlist at once);
* :class:`~repro.netlist.nsim.NumpySimulator` lanes (the vectorized
  uint64 bit-slice backend, same lane packing, different kernel
  machinery);
* the **program-specific** shrunken core (Section 7): the same program
  re-verified on a core whose PC, BARs, flags, and operand fields were
  narrowed to exactly what it uses.

Any architectural-state disagreement is reported as a
:class:`Divergence`; the shrinker (:mod:`repro.verify.shrink`) then
reduces the offending program to a minimal repro.  An optional
stuck-at ``fault`` is injected into the gate-level side only, which is
how the fuzzer proves it would catch a real netlist defect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.coregen.config import CoreConfig, program_specific_config
from repro.coregen.cosim import (
    architectural_nets,
    cosim_verify,
    halt_word_encoder,
    initial_memory,
)
from repro.coregen.generator import generate_core
from repro.coregen.isa_map import encode_program_for_core
from repro.errors import ConfigError, ReproError
from repro.isa.analysis import analyze_program
from repro.isa.program import Program
from repro.isa.spec import Instruction, MemOperand, Mnemonic
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.lanes import LaneMemoryHarness
from repro.netlist.nsim import NumpySimulator
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span
from repro.sim.machine import Machine

#: Executors the differential stack runs, in order.
DEFAULT_EXECUTORS = ("interpreted", "bitparallel", "numpy", "ps-isa")

#: Cycle safety valve for fuzz-sized programs.
DEFAULT_MAX_CYCLES = 100_000

_CHECKED = _obs_counter("verify.programs_checked")
_DIVERGENCES = _obs_counter("verify.divergences")


@dataclass(frozen=True)
class Divergence:
    """One executor disagreeing with the ISS on one program."""

    executor: str
    config: str
    seed: int | None
    details: tuple[str, ...]

    def __str__(self) -> str:
        head = f"[{self.executor} @ {self.config}"
        if self.seed is not None:
            head += f" seed={self.seed}"
        shown = "; ".join(self.details[:4])
        more = len(self.details) - 4
        if more > 0:
            shown += f"; ... {more} more"
        return f"{head}] {shown}"


def iss_reference(
    program: Program, config: CoreConfig, max_cycles: int = DEFAULT_MAX_CYCLES
) -> Machine:
    """Run the architectural reference to completion for ``config``."""
    machine = Machine(
        program,
        mem_size=config.data_memory_words(),
        num_bars=config.num_bars,
    )
    machine.run(max_steps=max_cycles)
    return machine


def ps_isa_config(program: Program, base: CoreConfig) -> CoreConfig:
    """The program-specific shrunken configuration for ``program``.

    The data footprint is taken from an actual reference run (not the
    static estimate) so dynamically-reached BAR-relative addresses are
    always inside the shrunken core's exactly-sized RAM.  Programs that
    halt by running off the end (handwritten benchmarks end in an
    explicit self-branch; fuzz programs need not) get one extra PC /
    branch-target bit so the halt address itself is representable --
    otherwise the shrunken PC wraps to 0 and re-runs the program.
    """
    machine = iss_reference(program, base)
    data_words = max(
        max(machine.stats.touched_addresses, default=0) + 1,
        program.data_words_used(),
        1,
    )
    analysis = analyze_program(program, data_words=data_words)
    config = program_specific_config(base, analysis)
    halt_pc = machine.pc
    if halt_pc >= len(program.instructions):
        need = max(1, halt_pc.bit_length())
        config = replace(
            config,
            pc_bits=max(config.pc_bits, need),
            operand1_bits=max(config.operand1_bits, need),
        )
    return config


def remap_bars(program: Program) -> Program:
    """Renumber BAR indices densely (Section 7's "unused BARs are
    removed").

    A program touching only BAR 2 of a 4-BAR machine shrinks to a core
    with a *single* settable BAR -- but that BAR is then index 1, so
    the program must be renumbered to match before it can execute on
    the shrunken core.  Semantics are unchanged: renumbering is
    uniform, and every BAR resets to zero regardless of index.
    """
    used = sorted({
        operand.bar
        for instruction in program.instructions
        for operand in (instruction.dst, instruction.src)
        if operand is not None and operand.bar != 0
    } | {
        instruction.bar_index
        for instruction in program.instructions
        if instruction.mnemonic is Mnemonic.SETBAR
    })
    mapping = {old: new for new, old in enumerate(used, start=1)}
    if all(old == new for old, new in mapping.items()):
        return program

    def operand(op):
        if op is None or op.bar == 0:
            return op
        return MemOperand(offset=op.offset, bar=mapping[op.bar])

    instructions = []
    for instruction in program.instructions:
        if instruction.mnemonic is Mnemonic.SETBAR:
            instructions.append(Instruction(
                Mnemonic.SETBAR,
                bar_index=mapping[instruction.bar_index],
                src=operand(instruction.src),
            ))
        elif instruction.mnemonic is Mnemonic.STORE:
            instructions.append(Instruction(
                Mnemonic.STORE, dst=operand(instruction.dst),
                imm=instruction.imm,
            ))
        elif instruction.is_branch:
            instructions.append(instruction)
        else:
            instructions.append(Instruction(
                instruction.mnemonic,
                dst=operand(instruction.dst),
                src=operand(instruction.src),
            ))
    return Program(
        name=program.name,
        instructions=instructions,
        datawidth=program.datawidth,
        num_bars=max(2, len(used) + 1),
        data=dict(program.data),
        symbols=dict(program.symbols),
        description=program.description,
    )


def ps_isa_variant(program: Program, base: CoreConfig) -> tuple[Program, CoreConfig]:
    """BAR-renumbered program plus its shrunken core configuration."""
    remapped = remap_bars(program)
    return remapped, ps_isa_config(remapped, base)


def fault_site_for_output(netlist, bus: str, bit: int = 0, stuck: int = 1):
    """A :class:`~repro.netlist.faults.StuckAtFault` on the instance
    driving output ``bus[bit]`` -- a guaranteed-architectural site for
    fault-detection demos and tests."""
    from repro.netlist.faults import StuckAtFault

    nets = netlist.outputs.get(bus)
    if nets is None:
        raise ReproError(f"netlist has no output bus {bus!r}")
    if not 0 <= bit < nets.width:
        raise ReproError(
            f"bit {bit} is outside output {bus!r}, which is "
            f"{nets.width} bits wide (0..{nets.width - 1})"
        )
    driver = int(netlist.cells.driver[nets[bit]])
    if driver < 0:
        raise ReproError(f"output {bus}[{bit}] is not instance-driven")
    return StuckAtFault(driver, stuck)


def lane_verify(
    programs: list[Program],
    config: CoreConfig,
    fault=None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    simulator=BitParallelSimulator,
) -> list[list[str]]:
    """Run a batch of programs as packed lanes; diff each lane.

    One lane-parallel simulator pass carries every program as a
    separate lane of the same netlist, so a batch of N costs roughly
    one gate-level simulation.  ``simulator`` selects the lane backend
    -- :class:`BitParallelSimulator` (bigint) or
    :class:`NumpySimulator` (vectorized bit-slice); both share the
    :class:`~repro.netlist.lanes.LanePlan` packing semantics, so this
    harness is backend-agnostic.  Returns one mismatch-string list per
    program (empty = that lane agrees with the ISS).

    Single-stage cores step exactly as many cycles as the longest lane
    has instructions; deeper pipelines get a stall/flush margin and
    must additionally park their PC in the halt loop.
    """
    if not programs:
        return []
    machines = [iss_reference(p, config, max_cycles) for p in programs]
    lanes = len(programs)
    netlist = generate_core(config)
    faults = [fault] * lanes if fault is not None else None
    sim = simulator(netlist, lanes, faults=faults)
    flag_nets, bar_nets = architectural_nets(netlist)

    roms = [encode_program_for_core(p, config) for p in programs]
    harness = LaneMemoryHarness(
        sim,
        lanes=lanes,
        roms=roms,
        memories=[initial_memory(p, config) for p in programs],
        halt_word=halt_word_encoder(config),
        pc_bits=len(netlist.outputs["pc"].nets),
    )

    steps = max(m.stats.instructions for m in machines)
    if config.pipeline_stages > 1:
        steps = config.pipeline_stages * steps + 2 * len(max(roms, key=len)) + 24
    harness.run(steps)
    memories = harness.memory_rows()
    pcs = sim.read_output("pc")
    flag_values = {
        flag: sim.read_nets(flag_nets.get(flag.name, ()))
        for flag in config.flags
    }
    bar_values = {
        index: sim.read_nets(bar_nets.get(index, ()))
        for index in range(1, config.num_bars)
    }

    pc_mask = (1 << max(1, config.pc_bits)) - 1
    bar_mask = (1 << config.bar_bits) - 1
    reports: list[list[str]] = []
    for lane, machine in enumerate(machines):
        details: list[str] = []
        halt_pc = machine.pc & pc_mask
        # Deep pipelines keep re-fetching in the halt self-loop, so
        # their PC oscillates around the halt address; like
        # cosim_verify, only single-stage cores get an exact PC check.
        if config.pipeline_stages == 1 and pcs[lane] != halt_pc:
            details.append(f"pc: gate={pcs[lane]} iss={halt_pc}")
        for flag in config.flags:
            gate = flag_values[flag][lane]
            iss = 1 if machine.flags & flag else 0
            if gate != iss:
                details.append(f"flag {flag.name}: gate={gate} iss={iss}")
        for index in range(1, config.num_bars):
            if index >= machine.num_bars:
                continue
            gate = bar_values[index][lane]
            iss = machine.bars[index] & bar_mask
            if gate != iss:
                details.append(f"bar{index}: gate={gate} iss={iss}")
        memory = memories[lane]
        for address in range(min(len(memory), machine.mem_size)):
            if memory[address] != machine.memory[address]:
                details.append(
                    f"mem[{address}]: gate={memory[address]} "
                    f"iss={machine.memory[address]}"
                )
        reports.append(details)
    return reports


def differential_check(
    program: Program,
    config: CoreConfig,
    executors=DEFAULT_EXECUTORS,
    fault=None,
    seed: int | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> list[Divergence]:
    """Run ``program`` through the whole differential stack.

    Returns one :class:`Divergence` per disagreeing executor (empty
    list = full agreement).  An executor that *crashes* (e.g. a
    fault-wedged pipeline that never quiesces) counts as divergent
    rather than aborting the campaign.

    Raises:
        ConfigError: If ``executors`` names an executor outside
            :data:`DEFAULT_EXECUTORS` (a typo would otherwise drop it
            silently).
    """
    unknown = sorted(set(executors) - set(DEFAULT_EXECUTORS))
    if unknown:
        raise ConfigError(
            f"unknown executor(s) {', '.join(map(repr, unknown))} "
            f"(choose from {', '.join(DEFAULT_EXECUTORS)})"
        )
    divergences: list[Divergence] = []

    def record(executor: str, config_name: str, details) -> None:
        if details:
            divergences.append(Divergence(
                executor=executor,
                config=config_name,
                seed=seed,
                details=tuple(str(d) for d in details),
            ))

    with _obs_span("verify.check", program=program.name, design=config.name):
        _CHECKED.inc()
        if "interpreted" in executors:
            try:
                mismatches = cosim_verify(
                    program, config, max_cycles=max_cycles,
                    backend="interpreted", fault=fault,
                )
            except Exception as error:  # wedged = detected
                mismatches = [f"executor crashed: {error}"]
            record("interpreted", config.name, mismatches)

        for executor, simulator in (
            ("bitparallel", BitParallelSimulator),
            ("numpy", NumpySimulator),
        ):
            if executor not in executors:
                continue
            try:
                lanes = lane_verify(
                    [program], config, fault=fault, max_cycles=max_cycles,
                    simulator=simulator,
                )
                mismatches = lanes[0]
            except Exception as error:
                mismatches = [f"executor crashed: {error}"]
            record(executor, config.name, mismatches)

        if "ps-isa" in executors:
            try:
                ps_program, ps_config = ps_isa_variant(program, config)
                # The injected fault is an instance index of the *base*
                # netlist; it has no meaning on the shrunken one.  The
                # shrunken core runs once, so the interpreter beats
                # generating compiled code for it.
                mismatches = cosim_verify(
                    ps_program, ps_config, max_cycles=max_cycles,
                    backend="interpreted",
                )
                config_name = f"ps:{ps_config.name}"
            except Exception as error:
                mismatches = [f"executor crashed: {error}"]
                config_name = f"ps:{config.name}"
            record("ps-isa", config_name, mismatches)

    _DIVERGENCES.inc(len(divergences))
    return divergences
