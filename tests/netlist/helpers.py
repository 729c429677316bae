"""Shared helpers for netlist tests: build and evaluate small circuits."""

from __future__ import annotations

from repro.netlist.core import CONST0, Netlist
from repro.netlist.sim import CycleSimulator


def evaluate(netlist: Netlist, **input_values: int) -> dict[str, int]:
    """Settle a combinational netlist and return all output bus values."""
    simulator = CycleSimulator(netlist)
    for name, value in input_values.items():
        simulator.set_input(name, value)
    simulator.settle()
    return {name: simulator.read_output(name) for name in netlist.outputs}


def memory_netlist(address_a) -> Netlist:
    """A toy core with the ports of the memory clock schedule.

    ``pc`` and ``addr_b`` come from flops and ``instr``;
    ``address_a(netlist, rdata_a)`` builds the nets of ``addr_a``.
    """
    netlist = Netlist("schedule")
    instr = netlist.input_bus("instr", 4)
    rdata_a = netlist.input_bus("rdata_a", 4)
    netlist.input_bus("rdata_b", 4)
    pc = netlist.register(instr.nets, name="pc")
    netlist.output_bus("pc", pc.nets)
    netlist.output_bus("addr_a", address_a(netlist, rdata_a))
    netlist.output_bus(
        "addr_b", [netlist.xor_(a, b) for a, b in zip(instr, pc)]
    )
    netlist.output_bus("we", [CONST0])
    netlist.output_bus("waddr", pc.nets)
    netlist.output_bus("wdata", rdata_a.nets)
    return netlist


def through_flop(netlist: Netlist, rdata_a) -> list:
    """``addr_a`` from a register that loads ``rdata_a`` at the edge."""
    return netlist.register(rdata_a.nets, name="r").nets
