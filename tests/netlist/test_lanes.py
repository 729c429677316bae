"""LanePlan packing semantics and numpy bit-slice backend surfaces.

The LanePlan is the contract both lane backends build their force
state from, so its validation and ordering rules are load-bearing:
a divergence here would let the bigint and numpy backends drift apart
silently.
"""

import pytest

from repro.coregen.config import CoreConfig, standard_sweep
from repro.coregen.generator import generate_core
from repro.errors import SimulationError
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.core import Netlist, SEQUENTIAL_CELLS
from repro.netlist.faults import StuckAtFault
from repro.netlist.lanes import LanePlan
from repro.netlist.nsim import (
    NumpySimulator,
    compile_numpy_netlist,
)

#: Ufunc row groups inside a level, in row order: AND, NAND (INV runs
#: as NAND(a, a)), NOR, OR, XOR, XNOR.
GROUP_ORDER = (
    ("AND2X1", "TSBUFX1"), ("NAND2X1", "INVX1"), ("NOR2X1",),
    ("OR2X1",), ("XOR2X1",), ("XNOR2X1",),
)


class TestLanePlan:
    def test_rejects_zero_lanes(self):
        with pytest.raises(SimulationError, match="at least one lane"):
            LanePlan(lanes=0)

    def test_rejects_fault_count_mismatch(self):
        with pytest.raises(SimulationError, match="3 faults for 2 lanes"):
            LanePlan(lanes=2, faults=(None, None, None))

    def test_for_faults_one_lane_per_entry(self):
        faults = (StuckAtFault(0, 1), None, StuckAtFault(2, 0))
        plan = LanePlan.for_faults(faults)
        assert plan.lanes == 3
        assert plan.faults == faults
        assert plan.has_forces

    def test_all_healthy_lanes_have_no_forces(self):
        plan = LanePlan.for_faults((None, None))
        assert not plan.has_forces
        assert plan.forced_bits(generate_core(CoreConfig(datawidth=4))) == {}

    def test_forced_bits_orders_by_first_lane_appearance(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        plan = LanePlan.for_faults((
            StuckAtFault(5, 1),
            StuckAtFault(2, 0),
            StuckAtFault(5, 0),  # same net as lane 0, opposite value
        ))
        forced = plan.forced_bits(netlist)
        nets = list(forced)
        assert nets == [netlist.instances[5].output, netlist.instances[2].output]
        assert forced[netlist.instances[5].output] == [(0, 1), (2, 0)]
        assert forced[netlist.instances[2].output] == [(1, 0)]

    def test_forced_bits_validates_instance_index(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        plan = LanePlan.for_faults((StuckAtFault(10**6, 1),))
        with pytest.raises(SimulationError, match="no instance"):
            plan.forced_bits(netlist)

    @pytest.mark.parametrize(
        "simulator", [BitParallelSimulator, NumpySimulator],
        ids=lambda s: s.__name__,
    )
    def test_simulators_accept_explicit_plan(self, simulator):
        netlist = generate_core(CoreConfig(datawidth=4))
        plan = LanePlan.for_faults((StuckAtFault(3, 1), None))
        sim = simulator(netlist, plan=plan)
        assert sim.lanes == 2
        assert sim.plan is plan
        sim.reset()
        sim.settle()
        # Lane 0 must see the forced net stuck high; lane 1 must not
        # be forced (it tracks whatever the logic computes).
        net = netlist.instances[3].output
        assert sim.read_nets([net])[0] == 1

    @pytest.mark.parametrize(
        "simulator", [BitParallelSimulator, NumpySimulator],
        ids=lambda s: s.__name__,
    )
    def test_simulators_reject_lane_fault_mismatch(self, simulator):
        netlist = generate_core(CoreConfig(datawidth=4))
        with pytest.raises(SimulationError, match="faults for"):
            simulator(netlist, 3, faults=[StuckAtFault(0, 1)] * 2)


class TestNumpySimulatorSurfaces:
    def test_rejects_unknown_input_and_output(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        sim = NumpySimulator(netlist, 2)
        with pytest.raises(SimulationError, match="no input bus"):
            sim.set_input("bogus", 0)
        with pytest.raises(SimulationError, match="no output bus"):
            sim.read_output("bogus")

    def test_rejects_out_of_range_values(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        sim = NumpySimulator(netlist, 2)
        width = len(netlist.inputs["instr"])
        with pytest.raises(SimulationError, match="does not fit input"):
            sim.set_input("instr", 1 << width)
        with pytest.raises(SimulationError, match="does not fit input"):
            sim.set_input("instr", [0, 1 << width])
        with pytest.raises(SimulationError, match="values for 2 lanes"):
            sim.set_input("instr", [0, 0, 0])

    def test_rejects_latches(self):
        netlist = Netlist("latchy")
        data = netlist.input_bus("d", 1)
        gate = netlist.input_bus("g", 1)
        out = netlist.net("q")
        netlist.add_instance("LATCHX1", (data.nets[0], gate.nets[0]), out)
        netlist.output_bus("q", [out])
        with pytest.raises(SimulationError, match="latches"):
            compile_numpy_netlist(netlist)

    def test_read_nets_beyond_64_nets(self):
        """>64-net collections recombine chunked uint64 gathers into
        bigints (parity with the bigint backend)."""
        netlist = generate_core(CoreConfig(datawidth=8))
        sim = NumpySimulator(netlist, 3)
        bigint = BitParallelSimulator(netlist, 3)
        for s in (sim, bigint):
            s.reset()
            s.set_input("instr", 0)
            s.settle()
        nets = [inst.output for inst in netlist.instances[:100]]
        assert sim.read_nets(nets) == bigint.read_nets(nets)


@pytest.mark.parametrize("config", standard_sweep(), ids=lambda c: c.name)
def test_levels_are_row_blocks_in_ufunc_group_order(config):
    """The layout contract STA and the numpy settle rely on: every
    combinational instance owns one row of one level's block lo..hi,
    reads only rows below lo, and each ufunc group is one contiguous
    run that the plan's cuts delimit."""
    netlist = generate_core(config)
    compiled = compile_numpy_netlist(netlist)
    layout = compiled.layout
    driver = {layout.row_of[i.output]: i for i in netlist.instances}
    group_of = {cell: g for g, cells in enumerate(GROUP_ORDER) for cell in cells}
    assert len(layout.level_slices) == len(compiled.levels)
    placed = 0
    for (lo, hi), plan in zip(layout.level_slices, compiled.levels):
        instances = [driver[row] for row in range(lo, hi)]
        placed += len(instances)
        assert all(
            layout.row_of[net] < lo for i in instances for net in i.inputs
        )
        groups = [group_of[i.cell] for i in instances]
        cuts = plan.cuts
        assert (plan.lo, cuts[0]) == (lo, 0)
        assert groups == [
            g for g in range(len(GROUP_ORDER)) for _ in range(cuts[g], cuts[g + 1])
        ]
    assert placed == sum(i.cell not in SEQUENTIAL_CELLS for i in netlist.instances)
