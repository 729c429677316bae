"""Tests for stuck-at fault injection and functional test campaigns."""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.fault_test import run_fault_campaign
from repro.errors import ConfigError, SimulationError
from repro.isa.assembler import assemble
from repro.netlist.core import Netlist
from repro.netlist.faults import (
    FaultCampaign,
    FaultySimulator,
    StuckAtFault,
    enumerate_fault_sites,
)


def xor_netlist():
    n = Netlist("t")
    a = n.input_bus("a", 1)[0]
    b = n.input_bus("b", 1)[0]
    n.output_bus("y", [n.xor_(a, b)])
    return n


class TestFaultySimulator:
    @pytest.mark.parametrize("stuck", [0, 1])
    def test_output_forced(self, stuck):
        n = xor_netlist()
        sim = FaultySimulator(n, StuckAtFault(0, stuck))
        for a in (0, 1):
            for b in (0, 1):
                sim.set_input("a", a)
                sim.set_input("b", b)
                sim.settle()
                assert sim.read_output("y") == stuck

    def test_fault_propagates_downstream(self):
        n = Netlist("t")
        a = n.input_bus("a", 1)[0]
        b = n.input_bus("b", 1)[0]
        first = n.nand(a, b)    # instance 0
        second = n.not_(first)  # instance 1 (AND via NAND+INV)
        n.output_bus("y", [second])
        sim = FaultySimulator(n, StuckAtFault(0, 0))
        sim.set_input("a", 0)   # healthy: nand(0,1)=1 -> y=0
        sim.set_input("b", 1)
        sim.settle()
        assert sim.read_output("y") == 1  # stuck nand=0 -> y=1

    def test_stuck_flop_stays_stuck(self):
        n = Netlist("t")
        d = n.input_bus("d", 1)[0]
        q = n.dff_r(d)
        n.output_bus("q", [q])
        flop_index = 0
        sim = FaultySimulator(n, StuckAtFault(flop_index, 1))
        sim.set_input("rst_n", 1)
        sim.set_input("d", 0)
        sim.settle()
        sim.tick()
        sim.settle()
        assert sim.read_output("q") == 1

    def test_invalid_fault_rejected(self):
        with pytest.raises(SimulationError):
            StuckAtFault(0, 2)
        with pytest.raises(SimulationError):
            FaultySimulator(xor_netlist(), StuckAtFault(99, 0))


class TestEnumeration:
    def test_two_polarities_per_site(self):
        sites = enumerate_fault_sites(xor_netlist())
        assert len(sites) == 2
        assert {s.stuck_value for s in sites} == {0, 1}

    def test_stride_samples(self):
        n = Netlist("t")
        a = n.input_bus("a", 1)[0]
        net = a
        for _ in range(10):
            net = n.not_(net)
        # Double inversion folds: builder collapses NOT(NOT(x)); count
        # the real instances.
        sites = enumerate_fault_sites(n, stride=2)
        assert len(sites) == 2 * ((len(n.instances) + 1) // 2)


class TestCampaign:
    def test_small_program_campaign(self):
        program = assemble(
            ".word x 3\n.word y 5\nADD x, y\nSTORE y, 1\nHALT\n", name="tiny"
        )
        campaign = run_fault_campaign(program, stride=24)
        assert isinstance(campaign, FaultCampaign)
        assert campaign.total > 0
        # The program exercises the adder and store paths, so a
        # meaningful share of faults must be caught...
        assert campaign.coverage > 0.2
        # ...but idle subsystems (rotates, branches-taken path) hide
        # faults: coverage below 100% is the expected, honest result.
        assert campaign.coverage < 1.0
        assert len(campaign.undetected_sites) == campaign.total - campaign.detected

    def test_richer_program_catches_more(self):
        simple = assemble(".word x 1\nSTORE x, 2\nHALT\n", name="simple")
        busy = assemble(
            ".word x 3\n.word y 5\n"
            "loop:\nADD x, y\nRLC x, x\nCMP x, y\nBR loop, V\n"
            "XOR y, x\nHALT\n",
            name="busy",
        )
        config = CoreConfig(datawidth=8)
        simple_cov = run_fault_campaign(simple, config, stride=20).coverage
        busy_cov = run_fault_campaign(busy, config, stride=20).coverage
        assert busy_cov > simple_cov

    @pytest.mark.parametrize("backend", ["jit", "compiled"])
    def test_unknown_backend_rejected(self, backend):
        """A backend name outside the three campaign backends is an
        error naming it and the choices, not a silent scalar run."""
        program = assemble(".word x 1\nSTORE x, 2\nHALT\n", name="simple")
        with pytest.raises(ConfigError) as raised:
            run_fault_campaign(program, stride=64, backend=backend)
        message = str(raised.value)
        assert repr(backend) in message
        assert "batched, numpy, interpreted" in message
