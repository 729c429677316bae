"""Lock-step co-simulation: gate-level core vs instruction-set simulator.

The strongest evidence that the generated netlists are *real* designs:
run a benchmark program cycle-by-cycle on the gate-level simulator with
behavioural ROM/RAM models attached, and compare every piece of
architectural state (PC, flags, BARs, data memory) against the
reference instruction-set simulator.

All pipeline depths are supported: multi-stage cores run until the
architectural state quiesces in the HALT loop (the stall and flush
control is thereby verified at gate level too).  The paper's
application-level results use single-stage cores (Section 8), which is
also the fastest configuration to verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.isa.program import Program
from repro.isa.spec import Flag, Instruction, Mnemonic
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.faults import FaultySimulator
from repro.netlist.lanes import clock_schedule
from repro.netlist.sim import CycleSimulator
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span
from repro.sim.machine import Machine
from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.coregen.isa_map import encode_for_core, encode_program_for_core

_COSIM_RUNS = _obs_counter("cosim.runs")
_COSIM_MISMATCHES = _obs_counter("cosim.mismatches")


@dataclass
class CoSimMismatch:
    """One architectural-state divergence found during co-simulation."""

    cycle: int
    what: str
    gate_value: int
    iss_value: int

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}: {self.what}: gate={self.gate_value} "
            f"iss={self.iss_value}"
        )


def architectural_nets(
    netlist,
) -> tuple[dict[str, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """Index flag and BAR flop nets of a generated core by name.

    Returns ``(flag_nets, bar_nets)``: flag nets keyed by flag name
    (e.g. ``"Z"``), BAR buses keyed by BAR index with nets LSB-first.
    Built in one pass over the named nets (a few percent of all nets)
    and memoized on the netlist like
    :func:`~repro.netlist.lanes.clock_schedule`, so callers share the
    dicts and must not change them.  Pickling drops the memo.
    """
    cached = getattr(netlist, "_architectural_nets", None)
    if cached is not None:
        return cached
    flag_nets: dict[str, list[int]] = {}
    bar_bits: dict[int, list[tuple[int, int]]] = {}
    for net, name in sorted(netlist.named_nets().items()):
        if name.startswith("flag_") and name.endswith("[0]"):
            flag_nets.setdefault(name[len("flag_"):-len("[0]")], []).append(net)
        elif name.startswith("bar"):
            prefix, bracket, bit = name.partition("[")
            index = prefix[len("bar"):]
            if bracket and index.isdigit() and bit.endswith("]"):
                bar_bits.setdefault(int(index), []).append(
                    (int(bit[:-1]), net)
                )
    bar_nets = {
        index: tuple(net for _, net in sorted(bits))
        for index, bits in bar_bits.items()
    }
    cached = netlist._architectural_nets = (
        {flag: tuple(nets) for flag, nets in flag_nets.items()},
        bar_nets,
    )
    return cached


def initial_memory(program: Program, config: CoreConfig) -> list[int]:
    """The core's data memory at reset: ``program.data`` masked to the
    datapath width, zeros elsewhere.

    Raises:
        SimulationError: If the program places data outside the core's
            memory.
    """
    memory = [0] * config.data_memory_words()
    mask = (1 << config.datawidth) - 1
    for address, value in program.data.items():
        if address >= len(memory):
            raise SimulationError(
                f"data at {address} exceeds the core's "
                f"{len(memory)}-word memory"
            )
        memory[address] = value & mask
    return memory


def halt_word_encoder(config: CoreConfig):
    """``pc -> instruction word`` for fetches past the program end.

    Encodes a branch-to-self, so a core that runs off its program
    parks there.  :class:`CoSimHarness` pads its ROM with it, and the
    lane harnesses of the fault campaign and the differential verifier
    (:class:`~repro.netlist.lanes.LaneMemoryHarness`) take it as their
    ``halt_word``.
    """

    def encode(pc: int) -> int:
        return encode_for_core(
            Instruction(Mnemonic.BRN, target=pc, mask=0), config
        )

    return encode


class CoSimHarness:
    """Drives one generated core against behavioural memories.

    Args:
        program: The program image to run.
        config: Core configuration; defaults to a standard single-stage
            core matching the program's datawidth and BAR count.
        backend: ``"interpreted"`` (default) runs
            :class:`~repro.netlist.sim.CycleSimulator`, the reference,
            which counts toggles and hosts probes.  ``"compiled"`` runs
            the compiled kernel at one bigint lane
            (:class:`~repro.netlist.compile.BitParallelSimulator`):
            bit-exact and about 1.4-1.5x faster per cycle once its
            code exists (a golden mult8 run on p1_8_2 took 3.0-4.4 ms
            against 4.6-6.7 ms interpreted), but with neither (see
            ``docs/MODELS.md``).
        fault: Optional stuck-at fault injected into the gate-level
            side only (the differential fuzzer uses this to prove it
            detects real netlist defects -- see ``docs/VERIFY.md``).
    """

    def __init__(
        self,
        program: Program,
        config: CoreConfig | None = None,
        backend: str = "interpreted",
        fault=None,
    ) -> None:
        if config is None:
            config = CoreConfig(
                datawidth=program.datawidth,
                pipeline_stages=1,
                num_bars=max(2, program.num_bars),
            )
        self.program = program
        self.config = config
        self.netlist = generate_core(config)
        self._schedule = clock_schedule(self.netlist)
        if backend == "interpreted":
            self.sim = (
                CycleSimulator(self.netlist) if fault is None
                else FaultySimulator(self.netlist, fault)
            )
            self._read_nets = self.sim.read_flop_bus
        elif backend == "compiled":
            sim = self.sim = BitParallelSimulator(self.netlist, faults=[fault])
            self._read_nets = lambda nets: sim.read_nets(nets)[0]
        else:
            raise SimulationError(
                f"unknown simulation backend {backend!r} "
                "(choose from interpreted, compiled)"
            )
        self._flag_nets, self._bar_nets = architectural_nets(self.netlist)
        self.rom = encode_program_for_core(program, config)
        self.memory = initial_memory(program, config)
        self._halt_word = halt_word_encoder(config)
        self.cycle = 0
        self.wrote_last_cycle = False
        self.sim.reset()

    # -- memory model ------------------------------------------------------

    def _fetch(self, pc: int) -> int:
        return self.rom[pc] if pc < len(self.rom) else self._halt_word(pc)

    def step(self) -> None:
        """Run one clock cycle (:class:`~repro.netlist.lanes.ClockSchedule`)."""
        we, waddr, wdata = self._schedule.clock(
            self.sim, self._read, self._fetch, self.memory.__getitem__
        )
        if we:
            self.memory[waddr] = wdata
        self.cycle += 1
        self.wrote_last_cycle = bool(we)

    # -- state access ---------------------------------------------------------

    def _read(self, name: str) -> int:
        """Output bus ``name`` as one integer (lane 0 on the compiled kernel)."""
        return self._read_nets(self.netlist.outputs[name].nets)

    @property
    def pc(self) -> int:
        """Current PC: flop outputs (the clock schedule checks), so no settle."""
        return self._read("pc")

    def flag(self, flag: Flag) -> int:
        """Current value of one architectural flag's flop."""
        nets = self._flag_nets.get(flag.name)
        if not nets:
            return 0
        return self._read_nets(nets)

    def bar(self, index: int) -> int:
        """Current value of settable BAR ``index`` (0 is hardwired)."""
        if index == 0 or index >= self.config.num_bars:
            return 0
        return self._read_nets(self._bar_nets.get(index, ()))


def cosim_verify(
    program: Program,
    config: CoreConfig | None = None,
    max_cycles: int = 200_000,
    backend: str = "compiled",
    fault=None,
) -> list[CoSimMismatch]:
    """Run ``program`` on both simulators and diff architectural state.

    Single-stage cores are stepped exactly as many cycles as the ISS
    executes instructions; multi-stage cores run until the PC parks in
    the HALT self-loop (which also exercises the stall/flush control).
    PC, flags, BARs, and the full data memory are compared afterwards.
    ``backend`` is :class:`CoSimHarness`'s: the compiled kernel at one
    bigint lane by default (no toggles are read here), or
    ``"interpreted"``.

    Returns:
        A list of mismatches -- empty means the core is equivalent on
        this program.
    """
    with _obs_span(
        "cosim",
        program=program.name,
        design=config.name if config is not None else "default",
        backend=backend,
    ) as sp:
        _COSIM_RUNS.inc()
        mismatches = _cosim_verify(program, config, max_cycles, backend, fault)
        _COSIM_MISMATCHES.inc(len(mismatches))
        sp.note(mismatches=len(mismatches))
    return mismatches


def run_to_halt(harness: CoSimHarness, max_cycles: int = 200_000) -> Machine:
    """Run the ISS reference, then step ``harness`` until its program halts.

    Single-stage cores step exactly as many cycles as the ISS executes
    instructions.  A multi-stage core parked in the HALT self-loop
    keeps re-fetching (its PC oscillates around the halt address), so
    it runs until memory writes go quiet and the PC has passed through
    the halt address repeatedly -- which also exercises the stall and
    flush control.

    Returns:
        The halted reference :class:`~repro.sim.machine.Machine`.
    """
    config = harness.config
    machine = Machine(
        harness.program,
        mem_size=config.data_memory_words(),
        num_bars=config.num_bars,
    )
    if not machine.run(max_steps=max_cycles).halted:
        raise SimulationError(f"{harness.program.name}: ISS did not halt")
    if config.pipeline_stages == 1:
        for _ in range(machine.stats.instructions):
            harness.step()
        return machine
    halt_pc = machine.pc & ((1 << max(1, config.pc_bits)) - 1)
    quiet = 0
    halt_sightings = 0
    for _ in range(max_cycles):
        harness.step()
        quiet = 0 if harness.wrote_last_cycle else quiet + 1
        if harness.pc == halt_pc:
            halt_sightings += 1
        if quiet >= 12 and halt_sightings >= 4:
            return machine
    raise SimulationError(f"{harness.program.name}: pipeline never quiesced")


def _cosim_verify(
    program: Program,
    config: CoreConfig | None,
    max_cycles: int,
    backend: str,
    fault=None,
) -> list[CoSimMismatch]:
    harness = CoSimHarness(program, config, backend=backend, fault=fault)
    machine = run_to_halt(harness, max_cycles)
    pc_mask = (1 << max(1, harness.config.pc_bits)) - 1
    mismatches: list[CoSimMismatch] = []

    def check(what: str, gate: int, iss: int) -> None:
        if gate != iss:
            mismatches.append(CoSimMismatch(harness.cycle, what, gate, iss))

    if harness.config.pipeline_stages == 1:
        check("pc", harness.pc, machine.pc & pc_mask)
    for flag in harness.config.flags:
        check(f"flag {flag.name}", harness.flag(flag), 1 if machine.flags & flag else 0)
    for index in range(1, harness.config.num_bars):
        if index < machine.num_bars:
            bar_mask = (1 << harness.config.bar_bits) - 1
            check(f"bar{index}", harness.bar(index), machine.bars[index] & bar_mask)
    for address in range(min(len(harness.memory), machine.mem_size)):
        check(f"mem[{address}]", harness.memory[address], machine.memory[address])
    return mismatches
