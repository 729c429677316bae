"""Cycle-accurate gate-level simulation of mapped netlists.

The simulator evaluates the combinational network in levelized order
and clocks all flip-flops simultaneously on :meth:`CycleSimulator.tick`.
It exists to *verify* generated cores: the TP-ISA core netlists are run
instruction-by-instruction against external memory models and their
architectural state compared with the instruction-set simulator.

This levelized interpreter is the reference simulator (see
``docs/MODELS.md``).  It reads the netlist's frozen cell arrays once
into a :class:`StepPlan`: one ``(table, out, a, b)`` step per
combinational cell, in the stored topological order, where ``table``
is the cell's 4-entry truth table (:data:`TRUTH_TABLES`).  A settle is
one loop of ``values[out] = table[values[a] << 1 | values[b]]``, which
keeps it simple and easy to instrument.  Runs that need no toggle
counts may take the compiled kernel of :mod:`repro.netlist.compile`
at one bigint lane instead
(:class:`~repro.netlist.compile.BitParallelSimulator`), about
1.4-1.5x faster per cycle once its code exists.

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

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import SimulationError
from repro.netlist.core import CELL_ARITY, CELL_FUNCTIONS, CELL_NAMES, CONST1, Netlist
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import histogram as _obs_histogram
from repro.obs.runtime import STATE as _OBS

# Interpreter telemetry; bound once so the per-tick cost while disabled
# is one attribute load and a branch.
_CYCLES = _obs_counter("sim.cycles_simulated")
_TOGGLE_READOUTS = _obs_histogram("sim.toggles_per_readout")

#: Each combinational cell's truth table, indexed by ``a << 1 | b``,
#: derived from :data:`~repro.netlist.core.CELL_FUNCTIONS` (the one
#: definition of each cell's logic).  A one-input cell reads its pin
#: twice, so only entries 0 and 3 of its table are ever read.
TRUTH_TABLES = {
    cell: tuple(
        function(*(a, b)[: CELL_ARITY[cell]]) for a in (0, 1) for b in (0, 1)
    )
    for cell, function in CELL_FUNCTIONS.items()
}

# The table of each kind code a frozen netlist stores (None: sequential).
_TABLE_OF_KIND = tuple(TRUTH_TABLES.get(name) for name in CELL_NAMES)
_RESET_FLOP = CELL_NAMES.index("DFFNRX1")


@dataclass(frozen=True)
class StepPlan:
    """A frozen netlist as the interpreter runs it (see :func:`step_plan`).

    Attributes:
        steps: One ``(table, out, a, b)`` per combinational cell, in the
            stored topological order: ``values[out] = table[values[a]
            << 1 | values[b]]``.  A one-input cell has ``b == a``.
        cells: Each step's cell, as an index into ``netlist.instances``.
        outputs: Each step's output net (what :meth:`CycleSimulator.tick`
            compares to count toggles).
        flop_cells: The sequential cells, in instance order.
        flop_d: Each flop's D net.
        flop_q: Each flop's Q net.
        flop_reset: Whether each flop resets asynchronously (DFFNRX1).
    """

    steps: tuple[tuple[tuple[int, ...], int, int, int], ...]
    cells: tuple[int, ...]
    outputs: tuple[int, ...]
    flop_cells: tuple[int, ...]
    flop_d: tuple[int, ...]
    flop_q: tuple[int, ...]
    flop_reset: tuple[bool, ...]


def step_plan(netlist: Netlist) -> StepPlan:
    """The :class:`StepPlan` of ``netlist``, memoized on it.

    Built from the frozen cell arrays (freezing the netlist on first
    use), without ``Instance`` objects.  The memo is dropped when the
    netlist is pickled (``Netlist.__getstate__``).

    Raises:
        SimulationError: If the netlist holds a latch (the generated
            cores are edge-triggered only).
    """
    cached = getattr(netlist, "_step_plan", None)
    if cached is not None:
        return cached
    cells = netlist.cells
    cells.refuse_latches()
    kinds = cells.kind.tolist()
    pins = cells.inputs.tolist()
    outputs = cells.output.tolist()
    order = cells.order.tolist()
    flops = [cell for cell, flop in enumerate(cells.sequential.tolist()) if flop]
    steps = []
    for cell in order:
        a, b = pins[cell]
        steps.append((_TABLE_OF_KIND[kinds[cell]], outputs[cell], a, a if b < 0 else b))
    cached = netlist._step_plan = StepPlan(
        steps=tuple(steps),
        cells=tuple(order),
        outputs=tuple(outputs[cell] for cell in order),
        flop_cells=tuple(flops),
        flop_d=tuple(pins[cell][0] for cell in flops),
        flop_q=tuple(outputs[cell] for cell in flops),
        flop_reset=tuple(kinds[cell] == _RESET_FLOP for cell in flops),
    )
    return cached


class CycleSimulator:
    """Two-phase (settle / tick) simulator for one netlist.

    A settle runs the netlist's :class:`StepPlan` (one truth-table
    lookup per combinational cell); a tick captures every flop and
    counts toggles per cell.

    Args:
        netlist: A validated, technology-mapped netlist.  Latches are
            not supported (the generated cores are edge-triggered only).
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._plan = step_plan(netlist)
        self._steps: Sequence = self._plan.steps
        # Flat value table indexed by net id; undriven nets read as 0,
        # matching the paper cores' reset-to-zero state.
        self._values: list[int] = [0] * netlist.net_count
        self._values[CONST1] = 1
        # Toggle counters are reported per index into ``netlist.instances``.
        cells = len(netlist.cells.kind)
        self._toggles: list[int] = [0] * cells
        self._prev_comb: list[int] = [-1] * cells
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
        self._evaluate(self._steps)

    def settle_cone(self, cone: Sequence[int]) -> None:
        """Settle only the steps at ``cone``'s positions, ascending.

        The clock schedule's address step (see
        :class:`repro.netlist.lanes.ClockSchedule`, whose cone holds
        positions in the stored topological order): the cone's inputs
        outside it must already hold their values.
        """
        self._evaluate(map(self._steps.__getitem__, cone))

    def _evaluate(self, steps: Iterable) -> None:
        values = self._values
        for table, out, a, b in steps:
            values[out] = table[values[a] << 1 | values[b]]

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
        plan = self._plan
        if probes:
            for probe in probes:
                probe.sample(self.cycles, values)
        previous = self._prev_comb
        for out, index in zip(plan.outputs, plan.cells):
            value = values[out]
            before = previous[index]
            if before != value:
                if before >= 0:
                    toggles[index] += 1
                previous[index] = value
        if resetting:
            captured = [
                0 if reset else values[d]
                for d, reset in zip(plan.flop_d, plan.flop_reset)
            ]
        else:
            captured = [values[d] for d in plan.flop_d]
        for q, index, next_value in zip(plan.flop_q, plan.flop_cells, captured):
            if values[q] != next_value:
                toggles[index] += 1
                values[q] = next_value
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
