"""Cycle-accurate gate-level simulation of mapped netlists.

The simulator evaluates the combinational network in levelized order
and clocks all flip-flops simultaneously on :meth:`CycleSimulator.tick`.
It exists to *verify* generated cores: the TP-ISA core netlists are run
instruction-by-instruction against external memory models and their
architectural state compared with the instruction-set simulator.

This levelized interpreter is the reference simulator (see
``docs/MODELS.md``): it walks the instance list calling each cell's
truth function, which is simple and easy to instrument.  Runs that
need speed but no toggle counts take the compiled kernel of
:mod:`repro.netlist.compile` at one bigint lane instead
(:class:`~repro.netlist.compile.BitParallelSimulator`).

External memories (the paper's crosspoint ROM and SRAM) are modelled
outside the netlist by the clock schedule of
:mod:`repro.netlist.lanes`: read ``pc`` (flop outputs, no settle),
provide the instruction word, settle only the address cone
(:meth:`CycleSimulator.settle_cone`), provide read data, settle once
in full and tick.  The schedule refuses, once per netlist, a core
whose address logic reads the read data it selects.

Per-instance output toggle counts are recorded for measured-activity
power analysis -- only this simulator keeps them.  Probes
(:mod:`repro.netlist.probe`) attach via :meth:`CycleSimulator.
attach_probe` for waveform capture and per-instruction energy
profiling; with none attached the hook costs one branch per tick.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SimulationError
from repro.netlist.core import CELL_FUNCTIONS, CONST1, Instance, Netlist
from repro.netlist.nsim import topological_order
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import histogram as _obs_histogram
from repro.obs.runtime import STATE as _OBS

# Interpreter telemetry; bound once so the per-tick cost while disabled
# is one attribute load and a branch.
_CYCLES = _obs_counter("sim.cycles_simulated")
_TOGGLE_READOUTS = _obs_histogram("sim.toggles_per_readout")


class CycleSimulator:
    """Two-phase (settle / tick) simulator for one netlist.

    Args:
        netlist: A validated, technology-mapped netlist.  Latches are
            not supported (the generated cores are edge-triggered only).
    """

    def __init__(self, netlist: Netlist) -> None:
        cells = netlist.cells  # freezes (and validates) on first use
        cells.refuse_latches()
        self.netlist = netlist
        self._order = topological_order(netlist)
        # Positional instance indices (toggle counters are reported per
        # index into ``netlist.instances``).
        self._comb_pos = cells.order.tolist()
        self._flop_pos = [k for k, flop in enumerate(cells.sequential.tolist()) if flop]
        self._flops = [netlist.instances[k] for k in self._flop_pos]
        # Flat value table indexed by net id; undriven nets read as 0,
        # matching the paper cores' reset-to-zero state.
        self._values: list[int] = [0] * netlist.net_count
        self._values[CONST1] = 1
        self._toggles: list[int] = [0] * len(netlist.instances)
        self._prev_comb: list[int] = [-1] * len(netlist.instances)
        self._probes: list = []
        self.cycles = 0

    # -- I/O -------------------------------------------------------------

    def set_input(self, name: str, value: int) -> None:
        """Drive the primary input bus ``name`` with integer ``value``."""
        bus = self.netlist.inputs.get(name)
        if bus is None:
            raise SimulationError(f"no input bus named {name!r}")
        if value < 0 or value >= (1 << len(bus)):
            raise SimulationError(f"value {value} does not fit input {name!r} ({len(bus)} bits)")
        for i, net in enumerate(bus):
            self._values[net] = (value >> i) & 1

    def read_output(self, name: str) -> int:
        """Read the primary output bus ``name`` as an integer."""
        bus = self.netlist.outputs.get(name)
        if bus is None:
            raise SimulationError(f"no output bus named {name!r}")
        return self._bus_value(bus.nets)

    def read_flop_bus(self, nets: Sequence[int]) -> int:
        """Read an arbitrary collection of nets as an LSB-first integer."""
        return self._bus_value(nets)

    def _bus_value(self, nets: Sequence[int]) -> int:
        values = self._values
        value = 0
        for i, net in enumerate(nets):
            value |= values[net] << i
        return value

    # -- phases ------------------------------------------------------------

    def settle(self) -> None:
        """Propagate current inputs/state through combinational logic."""
        self._evaluate(self._order)

    def settle_cone(self, cone: Sequence[Instance]) -> None:
        """Settle only ``cone``, cells in topological order.

        The clock schedule's address step (see
        :class:`repro.netlist.lanes.ClockSchedule`): the cone's inputs
        outside it must already hold their values.
        """
        self._evaluate(cone)

    def _evaluate(self, cells: Sequence[Instance]) -> None:
        values = self._values
        for instance in cells:
            function = CELL_FUNCTIONS[instance.cell]
            values[instance.output] = function(*(values[n] for n in instance.inputs))

    def tick(self) -> None:
        """Advance one clock edge: capture all flip-flop D inputs.

        Asynchronous reset (active-low ``rst_n``) overrides capture for
        DFFNRX1 cells.  Combinational toggle accounting happens here:
        one count per cycle in which a cell's settled output differs
        from the previous cycle's.
        """
        if _OBS.enabled:
            _CYCLES.value += 1
        reset_net = self.netlist.reset_n
        resetting = reset_net is not None and self._values[reset_net] == 0
        values = self._values
        toggles = self._toggles
        probes = self._probes
        if probes:
            for probe in probes:
                probe.sample(self.cycles, values)
        previous = self._prev_comb
        for instance, index in zip(self._order, self._comb_pos):
            value = values[instance.output]
            before = previous[index]
            if before != value:
                if before >= 0:
                    toggles[index] += 1
                previous[index] = value
        captured = [
            0 if (resetting and flop.cell == "DFFNRX1") else values[flop.inputs[0]]
            for flop in self._flops
        ]
        for flop, index, next_value in zip(self._flops, self._flop_pos, captured):
            if values[flop.output] != next_value:
                toggles[index] += 1
                values[flop.output] = next_value
        self.cycles += 1
        if probes:
            for probe in probes:
                probe.after_tick(self.cycles - 1, values, toggles)

    def reset(self) -> None:
        """Apply one asynchronous reset pulse (requires a reset input)."""
        if self.netlist.reset_n is None:
            raise SimulationError("netlist has no reset input")
        self.set_input("rst_n", 0)
        self.settle()
        self.tick()
        self.set_input("rst_n", 1)
        self.settle()

    # -- instrumentation -----------------------------------------------------

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.netlist.probe.Probe` to this simulator.

        The probe's ``sample`` hook fires at the start of every
        :meth:`tick` (settled pre-edge state) and ``after_tick`` once
        the edge -- including toggle accounting -- has been applied.
        With no probes attached the per-tick cost is one empty-list
        truth test.
        """
        self._probes.append(probe)

    def detach_probe(self, probe) -> None:
        """Remove a previously attached probe.

        Raises:
            SimulationError: If the probe was never attached.
        """
        try:
            self._probes.remove(probe)
        except ValueError:
            raise SimulationError("probe is not attached to this simulator")

    def toggle_counts(self) -> Mapping[int, int]:
        """Output-toggle count per instance index, sparse.

        Covers *every* instance -- combinational cells (counted once
        per cycle whose settled output differs from the previous
        cycle's) and sequential cells (counted on captures that change
        Q) alike.  Instances that never toggled are absent from the
        mapping; :func:`repro.netlist.power.measured_power_report`
        reports them as ``static_only_cells`` rather than dropping
        them silently.
        """
        counts = {
            index: count for index, count in enumerate(self._toggles) if count
        }
        if _OBS.enabled:
            _TOGGLE_READOUTS.observe(sum(counts.values()))
        return counts
