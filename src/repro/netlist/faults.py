"""Stuck-at fault injection for gate-level netlists.

Printed devices fail often (Section 3.1: 90-99% measured device
yield), and printed systems are too cheap to justify scan chains -- so
post-print testing means running a program and checking its output.
This module quantifies how good that test is: inject a stuck-at-0/1
fault on a cell output, run the benchmark on the faulty netlist, and
see whether the architectural result diverges from the golden run.

The detected fraction is the benchmark's *fault coverage* as a
functional print test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import SimulationError
from repro.netlist.core import CELL_FUNCTIONS, Netlist, SEQUENTIAL_CELLS
from repro.netlist.sim import CycleSimulator
from repro.obs.metrics import counter as _obs_counter

_SIMULATORS_BUILT = _obs_counter("faults.simulators_built")
_SITES_ENUMERATED = _obs_counter("faults.sites_enumerated")


@dataclass(frozen=True)
class StuckAtFault:
    """One stuck-at fault site: an instance's output net forced."""

    instance_index: int
    stuck_value: int

    def __post_init__(self) -> None:
        if self.stuck_value not in (0, 1):
            raise SimulationError(f"stuck value must be 0/1, got {self.stuck_value}")


class FaultySimulator(CycleSimulator):
    """A cycle simulator with one injected stuck-at fault.

    The faulted instance's output is forced to the stuck value after
    every combinational settle and on every flip-flop capture.  Lane
    runs force faults through the compiled ``settle_forced`` kernel
    instead (:class:`~repro.netlist.compile.BitParallelSimulator`).
    """

    def __init__(self, netlist: Netlist, fault: StuckAtFault) -> None:
        super().__init__(netlist)
        _SIMULATORS_BUILT.inc()
        if not 0 <= fault.instance_index < len(netlist.instances):
            raise SimulationError(f"no instance {fault.instance_index}")
        self.fault = fault
        self._fault_net = int(netlist.cells.output[fault.instance_index])

    def _evaluate(self, cells) -> None:
        # Levelized evaluation with the faulted driver overridden *in
        # place*, so every downstream consumer sees the stuck value;
        # the clock schedule's cone settle comes through here too.
        values = self._values
        values[self._fault_net] = self.fault.stuck_value
        for instance in cells:
            if instance.output == self._fault_net:
                continue
            function = CELL_FUNCTIONS[instance.cell]
            values[instance.output] = function(
                *(values[n] for n in instance.inputs)
            )

    def tick(self) -> None:
        super().tick()
        # A stuck sequential output stays stuck across the edge.
        self._values[self._fault_net] = self.fault.stuck_value


def enumerate_fault_sites(netlist: Netlist, stride: int = 1) -> list[StuckAtFault]:
    """All (or every ``stride``-th) stuck-at-0/1 fault site."""
    sites = []
    for index in range(0, len(netlist.instances), stride):
        sites.append(StuckAtFault(index, 0))
        sites.append(StuckAtFault(index, 1))
    _SITES_ENUMERATED.inc(len(sites))
    return sites


@dataclass(frozen=True)
class FaultCampaign:
    """Outcome of a fault-injection campaign."""

    total: int
    detected: int
    undetected_sites: tuple[StuckAtFault, ...]

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 0.0
