"""Tests for the cycle-accurate gate-level simulator."""

import pytest

from repro.errors import SimulationError
from repro.netlist.components import incrementer
from repro.netlist.core import Netlist
from repro.netlist.lanes import clock_schedule
from repro.netlist.sim import CycleSimulator
from tests.netlist.helpers import memory_netlist, through_flop


def counter(width=4):
    """A self-incrementing counter register (classic smoke design)."""
    n = Netlist("counter")
    # Feedback register: allocate the D nets first, create the flops,
    # then drive the D nets from the incremented Q values.
    d_nets = [n.net(f"d[{i}]") for i in range(width)]
    q = [n.dff_r(d, f"q[{i}]") for i, d in enumerate(d_nets)]
    inc = incrementer(n, q)
    for d_net, inc_net in zip(d_nets, inc.nets):
        n.add_instance("AND2X1", (inc_net, n.reset_input()), d_net)
    n.output_bus("count", q)
    return n


class TestSequentialBehaviour:
    def test_counter_counts(self):
        sim = CycleSimulator(counter())
        sim.reset()
        seen = []
        for _ in range(5):
            sim.settle()
            seen.append(sim.read_output("count"))
            sim.tick()
        sim.settle()
        assert seen == [0, 1, 2, 3, 4]

    def test_counter_wraps(self):
        sim = CycleSimulator(counter(width=2))
        sim.reset()
        for _ in range(4):
            sim.settle()
            sim.tick()
        sim.settle()
        assert sim.read_output("count") == 0

    def test_reset_clears_state(self):
        sim = CycleSimulator(counter())
        sim.reset()
        for _ in range(3):
            sim.settle()
            sim.tick()
        sim.reset()
        sim.settle()
        assert sim.read_output("count") == 0


class TestIo:
    def test_unknown_buses_rejected(self):
        sim = CycleSimulator(counter())
        with pytest.raises(SimulationError):
            sim.set_input("nope", 0)
        with pytest.raises(SimulationError):
            sim.read_output("nope")

    def test_oversized_input_rejected(self):
        n = Netlist("t")
        n.input_bus("a", 2)
        n.output_bus("y", [n.inputs["a"][0]])
        sim = CycleSimulator(n)
        with pytest.raises(SimulationError):
            sim.set_input("a", 4)

    def test_reset_requires_reset_net(self):
        n = Netlist("t")
        a = n.input_bus("a", 1)
        n.output_bus("y", [n.not_(a[0])])
        sim = CycleSimulator(n)
        with pytest.raises(SimulationError):
            sim.reset()


class TestMemoryCallback:
    def test_step_with_memory_fixed_point(self):
        """A register fed through an external 'memory' that doubles,
        one clock of the memory clock schedule at a time."""
        netlist = memory_netlist(through_flop)
        sim = CycleSimulator(netlist)
        sim.reset()
        memory = [(2 * i) % 16 for i in range(16)]
        schedule = clock_schedule(netlist)

        def clock():
            schedule.clock(sim, sim.read_output, lambda pc: 0, memory.__getitem__)
            return sim.read_output("addr_a")

        assert [clock() for _ in range(4)] == [0, 0, 0, 0]  # 0 maps to 0
        # Seed a nonzero start: preload address 0 -> 3.
        memory[0] = 3
        assert [clock(), clock()] == [3, 6]

    def test_toggle_counts_accumulate(self):
        sim = CycleSimulator(counter())
        sim.reset()
        for _ in range(8):
            sim.settle()
            sim.tick()
        counts = sim.toggle_counts()
        assert sum(counts.values()) > 0

    def test_latch_rejected(self):
        n = Netlist("t")
        a = n.input_bus("a", 1)
        en = n.input_bus("en", 1)
        n.add_instance("LATCHX1", (a[0], en[0]))
        with pytest.raises(SimulationError, match="latch"):
            CycleSimulator(n)
