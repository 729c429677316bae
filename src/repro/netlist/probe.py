"""Design-under-test introspection: net probing and energy attribution.

The gate-level simulators verify generated cores but historically kept
their internals opaque -- one scalar toggle total, no waveforms, no
idea which part of the design burns the energy.  This module opens the
box:

* **probe selection** (:func:`resolve_probes`) -- pick nets by explicit
  name, regex, or architectural group (``pc``, ``flags``, ``bars``,
  ``bus``), assembled into named, LSB-first :class:`ProbeSignal` buses
  with hierarchical scopes derived from the net-name prefixes the core
  generator assigns (``flag_Z`` scopes under ``flags``, ``bar1`` under
  ``bars``, pipeline registers under their stage);
* **waveform capture** (:class:`WaveProbe`) -- samples probed nets
  every clock and feeds a :class:`repro.obs.wave.VcdWriter`;
* **module attribution** (:func:`module_map`) -- a per-instance module
  label derived from net names, letting
  :func:`repro.netlist.power.attributed_power_report` split measured
  energy per module the way the paper's Table 4 splits core power;
* **per-instruction energy** (:class:`InstructionEnergyProfiler`) --
  correlates the fetched PC with per-cycle toggle deltas, producing
  energy-per-instruction and cycles-per-PC histograms.

Probes attach to the interpreted
:class:`~repro.netlist.sim.CycleSimulator` (the only simulator that
hosts them) via ``attach_probe``; with no probes attached the
simulator's only cost is one empty-list truth test per tick.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.netlist.core import CONST0, CONST1, Netlist, SEQUENTIAL_CELLS
from repro.netlist.nsim import topological_order

#: Architectural probe groups understood by :func:`resolve_probes`.
ARCH_GROUPS = ("pc", "flags", "bars", "bus")

#: Pipeline-register name suffixes that define waveform sub-scopes.
_STAGE_SUFFIXES = ("if", "ex")

#: Module label for instances whose fanout reaches no named net.
UNATTRIBUTED = "(unattributed)"

_BAR_NAME = re.compile(r"bar\d+$")


@dataclass(frozen=True)
class ProbeSignal:
    """One probed signal: a named, LSB-first group of nets.

    Attributes:
        name: Signal name as it appears in the waveform.
        nets: Net ids, least-significant bit first.
        scope: Hierarchical scope path (may be empty = top level).
    """

    name: str
    nets: tuple[int, ...]
    scope: tuple[str, ...] = ()

    @property
    def width(self) -> int:
        return len(self.nets)


def _scope_of(name: str) -> tuple[str, ...]:
    """Waveform scope derived from a net-name prefix.

    The core generator's naming conventions carry the hierarchy:
    ``flag_*`` nets are the flag register, ``bar<N>`` the BAR file,
    and ``*_if`` / ``*_ex`` the pipeline-stage registers.
    """
    if name.startswith("flag_"):
        return ("flags",)
    if _BAR_NAME.match(name):
        return ("bars",)
    stem, _, suffix = name.rpartition("_")
    if stem and suffix in _STAGE_SUFFIXES:
        return (suffix,)
    return ()


def named_buses(netlist: Netlist) -> dict[str, tuple[int, ...]]:
    """Assemble the netlist's named nets into LSB-first buses.

    Net names of the form ``prefix[i]`` group into a bus ``prefix``;
    primary input/output buses are included under their port names
    (port definitions win on name collisions, e.g. the ``pc`` output
    bus aliasing the ``pc`` flop nets).  Constants and ambiguous
    scalar names (two distinct nets sharing one unindexed name) are
    skipped.
    """
    indexed: dict[str, dict[int, int]] = {}
    scalars: dict[str, int | None] = {}  # None marks an ambiguous name
    for net, name in netlist.named_nets().items():
        if net in (CONST0, CONST1):
            continue
        prefix, bracket, rest = name.partition("[")
        if bracket and rest.endswith("]") and rest[:-1].isdigit():
            indexed.setdefault(prefix, {})[int(rest[:-1])] = net
        elif name in scalars:
            scalars[name] = None
        else:
            scalars[name] = net
    buses: dict[str, tuple[int, ...]] = {}
    for prefix, bits in indexed.items():
        if sorted(bits) == list(range(len(bits))):
            buses[prefix] = tuple(bits[i] for i in range(len(bits)))
    for name, net in scalars.items():
        if net is not None and name not in buses:
            buses[name] = (net,)
    for port in (*netlist.inputs.values(), *netlist.outputs.values()):
        buses[port.name] = tuple(port.nets)
    return buses


def resolve_probes(
    netlist: Netlist,
    names: Iterable[str] = (),
    regex: str | None = None,
    groups: Iterable[str] = (),
) -> list[ProbeSignal]:
    """Select signals to probe; see module docstring for the three modes.

    Args:
        netlist: The design under test.
        names: Exact bus names (``"pc"``) or single bits (``"pc[3]"``).
        regex: Pattern matched (``re.fullmatch``) against bus names.
        groups: Architectural groups from :data:`ARCH_GROUPS`.

    Returns:
        Deduplicated :class:`ProbeSignal` list in selection order
        (groups, then names, then regex matches sorted by name).

    Raises:
        SimulationError: On unknown groups, names, or empty regex hits.
    """
    buses = named_buses(netlist)
    picked: dict[str, ProbeSignal] = {}

    def add(name: str, nets: Sequence[int]) -> None:
        if name not in picked:
            picked[name] = ProbeSignal(name, tuple(nets), _scope_of(name))

    for group in groups:
        if group == "pc":
            if "pc" not in buses:
                raise SimulationError("netlist has no pc nets to probe")
            add("pc", buses["pc"])
        elif group == "flags":
            for name in sorted(buses):
                if name.startswith("flag_"):
                    add(name, buses[name])
        elif group == "bars":
            for name in sorted(buses):
                if _BAR_NAME.match(name):
                    add(name, buses[name])
        elif group == "bus":
            for port in (*netlist.inputs.values(), *netlist.outputs.values()):
                add(port.name, tuple(port.nets))
        else:
            raise SimulationError(
                f"unknown probe group {group!r} (expected one of {ARCH_GROUPS})"
            )
    for name in names:
        prefix, bracket, rest = name.partition("[")
        if bracket and rest.endswith("]") and rest[:-1].isdigit():
            bus = buses.get(prefix)
            bit = int(rest[:-1])
            if bus is None or bit >= len(bus):
                raise SimulationError(f"no net named {name!r}")
            add(name, (bus[bit],))
        elif name in buses:
            add(name, buses[name])
        else:
            raise SimulationError(f"no bus named {name!r}")
    if regex is not None:
        pattern = re.compile(regex)
        matches = [name for name in sorted(buses) if pattern.fullmatch(name)]
        if not matches:
            raise SimulationError(f"probe regex {regex!r} matches no bus")
        for name in matches:
            add(name, buses[name])
    return list(picked.values())


def module_map(netlist: Netlist) -> list[str]:
    """Per-instance module label, aligned with ``netlist.instances``.

    An instance driving a named net belongs to that name's prefix
    (``pc[3]`` -> ``pc``); unnamed combinational instances inherit the
    label of their fanout, resolved in reverse levelized order so
    every cone collapses onto the architectural register or output
    port it feeds.  Fan-out into several modules is broken
    deterministically (lexicographically smallest label); logic whose
    fanout reaches no named net is labelled :data:`UNATTRIBUTED`.
    """
    names = netlist.named_nets()
    labels: dict[int, str] = {}  # net id -> module label
    for bus in netlist.outputs.values():
        for net in bus:
            labels.setdefault(net, bus.name)
    for net, name in names.items():
        if net in (CONST0, CONST1):
            continue
        labels[net] = name.partition("[")[0]

    consumers: dict[int, list[int]] = {}
    for index, instance in enumerate(netlist.instances):
        for net in instance.inputs:
            consumers.setdefault(net, []).append(index)

    result = [""] * len(netlist.instances)
    position = {inst.output: n for n, inst in enumerate(netlist.instances)}
    order = topological_order(netlist)
    sequential = [
        (index, inst)
        for index, inst in enumerate(netlist.instances)
        if inst.cell in SEQUENTIAL_CELLS
    ]
    for index, inst in sequential:
        result[index] = labels.get(inst.output, UNATTRIBUTED)
        labels[inst.output] = result[index]
    for inst in reversed(order):
        index = position[inst.output]
        label = labels.get(inst.output)
        if label is None:
            candidates = [
                result[c] for c in consumers.get(inst.output, ()) if result[c]
            ]
            label = min(candidates) if candidates else UNATTRIBUTED
            labels[inst.output] = label
        result[index] = label
    return result


class Probe:
    """Base class for simulator probes (no-op hooks).

    A probe attached to a :class:`~repro.netlist.sim.CycleSimulator`
    receives :meth:`sample` at the *start* of every ``tick`` -- when
    the value table holds the fully settled state of the ending cycle,
    before flops capture -- and :meth:`after_tick` once the clock edge
    (including toggle accounting) has been applied.
    """

    def sample(self, cycle: int, values: list) -> None:
        """Settled pre-edge state of cycle ``cycle``."""

    def after_tick(self, cycle: int, values: list, toggles: list) -> None:
        """Post-edge state; ``toggles`` includes cycle ``cycle``."""


class WaveProbe(Probe):
    """Samples probed signals each cycle into a VCD waveform.

    Args:
        netlist: The design under test.
        signals: What to record (see :func:`resolve_probes`).
        writer: Optional pre-configured
            :class:`~repro.obs.wave.VcdWriter`; one named after the
            design is created by default.
    """

    def __init__(
        self,
        netlist: Netlist,
        signals: Sequence[ProbeSignal],
        writer=None,
    ) -> None:
        from repro.obs.wave import VcdWriter

        if not signals:
            raise SimulationError("WaveProbe needs at least one signal")
        self.netlist = netlist
        self.signals = list(signals)
        self.writer = writer if writer is not None else VcdWriter(netlist.name)
        self._vars = [
            self.writer.declare(sig.name, sig.width, sig.scope)
            for sig in self.signals
        ]
        self._flat = [net for sig in self.signals for net in sig.nets]
        slices = []
        start = 0
        for sig in self.signals:
            slices.append((start, sig.width))
            start += sig.width
        self._slices = slices
        self.samples = 0

    def sample(self, cycle: int, values: list) -> None:
        bits = [values[net] for net in self._flat]
        sampled: dict = {}
        for var, (start, width) in zip(self._vars, self._slices):
            value = 0
            for i in range(width):
                value |= bits[start + i] << i
            sampled[var] = value
        if self.samples == 0:
            self.writer.start(sampled, time=cycle)
        else:
            self.writer.sample(cycle, sampled)
        self.samples += 1

    def render(self) -> str:
        """The VCD text collected so far."""
        return self.writer.render()

    def write(self, path):
        """Write the VCD to ``path``; returns the path."""
        return self.writer.write(path)


class InstructionEnergyProfiler(Probe):
    """Correlates fetched PCs with per-cycle switching energy.

    Every cycle, the PC sampled from the settled pre-edge state names
    the instruction occupying the fetch slot; the toggle delta the
    clock edge adds -- weighted by each instance's characterized
    per-switch energy -- is charged to that PC.  The result is an
    energy-per-instruction histogram plus a cycles-per-PC count, with
    the PC stream mirrored into a :class:`repro.sim.trace.FetchTrace`
    so its windowing (``maxlen`` / ``dropped``) and hotspot helpers
    (``top_n``) apply unchanged.

    Args:
        netlist: The design under test.
        library: Technology supplying per-cell switch energies.
        pc_nets: The PC nets, LSB-first (resolve via
            :func:`resolve_probes` or the netlist's ``pc`` output bus).
        trace: Optional :class:`~repro.sim.trace.FetchTrace` to record
            into (bounded traces profile long runs in O(maxlen) memory;
            the energy histograms always cover every cycle).
    """

    def __init__(
        self,
        netlist: Netlist,
        library,
        pc_nets: Sequence[int],
        trace=None,
    ) -> None:
        from repro.sim.trace import FetchTrace

        if not pc_nets:
            raise SimulationError("profiler needs at least one pc net")
        self.netlist = netlist
        self._pc_nets = tuple(pc_nets)
        self._weights = [
            library.cell(instance.cell).energy for instance in netlist.instances
        ]
        self.trace = trace if trace is not None else FetchTrace()
        self.energy_by_pc: dict[int, float] = {}
        self.cycles_by_pc: Counter = Counter()
        self.total_energy = 0.0
        self._prev: list[int] | None = None
        self._pc: int | None = None

    def sample(self, cycle: int, values: list) -> None:
        pc = 0
        for i, net in enumerate(self._pc_nets):
            pc |= values[net] << i
        self._pc = pc
        self.trace.record(pc)
        self.cycles_by_pc[pc] += 1

    def after_tick(self, cycle: int, values: list, toggles: list) -> None:
        if self._prev is None:
            # First profiled edge: charge everything since reset to it.
            self._prev = [0] * len(toggles)
        prev = self._prev
        weights = self._weights
        energy = 0.0
        for index, count in enumerate(toggles):
            delta = count - prev[index]
            if delta:
                energy += delta * weights[index]
                prev[index] = count
        self.energy_by_pc[self._pc] = (
            self.energy_by_pc.get(self._pc, 0.0) + energy
        )
        self.total_energy += energy

    def energy_ranking(self, top: int | None = None) -> list[tuple[int, float]]:
        """``(pc, energy)`` pairs, most energy-hungry first."""
        ranked = sorted(
            self.energy_by_pc.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:top] if top is not None else ranked
