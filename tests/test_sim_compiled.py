"""Equivalence suite: lane simulators vs the interpreter.

The compiled kernel's bigint lanes (at one lane and at many) and the
vectorized numpy bit-slice backend must be bit-exact with the
reference interpreter -- same output values, same flop state -- on
every configuration of the paper's Figure 7 sweep, under randomized
stimulus, and must run a memory loop through a flop on the memory
clock schedule alike (the schedule itself is tested in
``tests/netlist/test_clock_schedule.py``).  Fault injection and fault
campaigns must agree across all three campaign backends as well, fault
for fault.
"""

import random

import pytest

from repro.coregen.config import CoreConfig, standard_sweep
from repro.coregen.cosim import CoSimHarness, cosim_verify
from repro.coregen.fault_test import run_fault_campaign
from repro.coregen.generator import generate_core
from repro.errors import SimulationError, UnsupportedInLaneMode
from repro.isa.assembler import assemble
from repro.netlist.compile import BitParallelSimulator, compiled_netlist
from repro.netlist.faults import FaultySimulator, StuckAtFault, enumerate_fault_sites
from repro.netlist.lanes import clock_schedule
from repro.netlist.nsim import NumpySimulator
from repro.netlist.sim import CycleSimulator
from tests.netlist.helpers import memory_netlist, through_flop


def random_stimulus(netlist, rng, cycle):
    """One random input assignment; reset pulsed on a few cycles."""
    stimulus = {
        name: rng.randrange(1 << len(bus)) for name, bus in netlist.inputs.items()
    }
    if "rst_n" in netlist.inputs:
        stimulus["rst_n"] = 0 if cycle % 11 == 0 else 1
    return stimulus


def drive_lockstep(netlist, sims, cycles, seed):
    """Drive identical random vectors; compare outputs every cycle."""
    rng = random.Random(seed)
    for cycle in range(cycles):
        stimulus = random_stimulus(netlist, rng, cycle)
        for sim in sims:
            for name, value in stimulus.items():
                sim.set_input(name, value)
            sim.settle()
        reference = sims[0]
        for sim in sims[1:]:
            for name in netlist.outputs:
                assert sim.read_output(name) == reference.read_output(name), (
                    f"cycle {cycle}, output {name}"
                )
        for sim in sims:
            sim.tick()


class OneLane:
    """One bigint lane read as scalar ints, for :func:`drive_lockstep`."""

    def __init__(self, netlist, fault=None):
        self.sim = BitParallelSimulator(netlist, faults=[fault])
        self.set_input = self.sim.set_input
        self.settle = self.sim.settle
        self.tick = self.sim.tick

    def read_output(self, name):
        return self.sim.read_output(name)[0]


@pytest.mark.parametrize("config", standard_sweep(), ids=lambda c: c.name)
def test_compiled_matches_interpreter_on_sweep(config):
    """One compiled bigint lane agrees with the interpreter on all 24
    cores: every net value (flop state included) and the cycle count."""
    netlist = generate_core(config)
    interpreted = CycleSimulator(netlist)
    compiled = OneLane(netlist)
    drive_lockstep(netlist, [interpreted, compiled], cycles=20, seed=config.name)
    assert interpreted._values == compiled.sim._values
    assert interpreted.cycles == compiled.sim.cycles


@pytest.mark.parametrize(
    "config",
    [CoreConfig(datawidth=8), CoreConfig(datawidth=16, pipeline_stages=2)],
    ids=lambda c: c.name,
)
def test_bit_parallel_matches_scalar_lanes(config):
    """Each bigint lane behaves exactly like one interpreted sim,
    including per-lane asynchronous reset."""
    netlist = generate_core(config)
    lanes = 9
    parallel = BitParallelSimulator(netlist, lanes)
    scalars = [CycleSimulator(netlist) for _ in range(lanes)]
    rng = random.Random(3)
    for cycle in range(25):
        for name, bus in netlist.inputs.items():
            if name == "rst_n":
                values = [0 if (cycle + lane) % 9 == 0 else 1 for lane in range(lanes)]
            else:
                values = [rng.randrange(1 << len(bus)) for _ in range(lanes)]
            parallel.set_input(name, values)
            for lane, sim in enumerate(scalars):
                sim.set_input(name, values[lane])
        parallel.settle()
        for sim in scalars:
            sim.settle()
        for name in netlist.outputs:
            assert parallel.read_output(name) == [
                sim.read_output(name) for sim in scalars
            ], f"cycle {cycle}, output {name}"
        parallel.tick()
        for sim in scalars:
            sim.tick()


@pytest.mark.parametrize("config", standard_sweep(), ids=lambda c: c.name)
def test_numpy_matches_interpreter_on_sweep(config):
    """Outputs, cycle counts, and architectural flop state agree on
    all 24 cores, with every lane of the bit-slice matrix carrying the
    same stimulus as the scalar reference."""
    netlist = generate_core(config)
    reference = CycleSimulator(netlist)
    lanes = 3
    vector = NumpySimulator(netlist, lanes)
    rng = random.Random(config.name)
    for cycle in range(20):
        stimulus = random_stimulus(netlist, rng, cycle)
        for name, value in stimulus.items():
            reference.set_input(name, value)
            vector.set_input(name, value)  # int broadcasts to all lanes
        reference.settle()
        vector.settle()
        for name in netlist.outputs:
            expected = reference.read_output(name)
            assert vector.read_output(name) == [expected] * lanes, (
                f"cycle {cycle}, output {name}"
            )
        reference.tick()
        vector.tick()
    assert vector.cycles == reference.cycles
    # Architectural state: every flop output net agrees in every lane
    # (>64 flops on the wide cores exercises chunked read_nets).
    flop_nets = [
        inst.output for inst in netlist.instances if inst.cell.startswith("DFF")
    ]
    expected = 0
    for i, net in enumerate(flop_nets):
        expected |= (reference._values[net] & 1) << i
    assert vector.read_nets(flop_nets) == [expected] * lanes


def test_numpy_lanes_match_bigint_lanes_across_word_boundary():
    """70 lanes (two uint64 words, partial second word) are bit-exact
    with the bigint lane backend under per-lane stimulus and reset."""
    netlist = generate_core(CoreConfig(datawidth=8))
    lanes = 70
    vector = NumpySimulator(netlist, lanes)
    parallel = BitParallelSimulator(netlist, lanes)
    rng = random.Random(5)
    for cycle in range(15):
        for name, bus in netlist.inputs.items():
            if name == "rst_n":
                values = [
                    0 if (cycle + lane) % 7 == 0 else 1 for lane in range(lanes)
                ]
            else:
                values = [rng.randrange(1 << len(bus)) for _ in range(lanes)]
            vector.set_input(name, values)
            parallel.set_input(name, values)
        vector.settle()
        parallel.settle()
        for name in netlist.outputs:
            assert vector.read_output(name) == parallel.read_output(name), (
                f"cycle {cycle}, output {name}"
            )
        vector.tick()
        parallel.tick()


def test_faulty_compiled_matches_interpreter():
    """Forced-settle fault injection on one compiled lane is bit-exact
    with the interpreted FaultySimulator, every net value included."""
    netlist = generate_core(CoreConfig(datawidth=8))
    for fault in enumerate_fault_sites(netlist, stride=131):
        interpreted = FaultySimulator(netlist, fault)
        compiled = OneLane(netlist, fault)
        drive_lockstep(
            netlist, [interpreted, compiled], cycles=12, seed=fault.instance_index
        )
        assert interpreted._values == compiled.sim._values, fault


def test_bit_parallel_fault_lanes_match_scalar_faults():
    """A lane with a stuck-at fault equals the interpreted FaultySimulator."""
    netlist = generate_core(CoreConfig(datawidth=8))
    faults = enumerate_fault_sites(netlist, stride=211)
    lanes = len(faults)
    parallel = BitParallelSimulator(netlist, lanes, faults=faults)
    scalars = [FaultySimulator(netlist, fault) for fault in faults]
    rng = random.Random(17)
    for cycle in range(15):
        stimulus = random_stimulus(netlist, rng, cycle)
        for name, value in stimulus.items():
            parallel.set_input(name, value)
            for sim in scalars:
                sim.set_input(name, value)
        parallel.settle()
        for sim in scalars:
            sim.settle()
        for name in netlist.outputs:
            assert parallel.read_output(name) == [
                sim.read_output(name) for sim in scalars
            ], f"cycle {cycle}, output {name}"
        parallel.tick()
        for sim in scalars:
            sim.tick()


def test_numpy_fault_lanes_match_scalar_faults():
    """A numpy lane with a stuck-at fault equals the interpreted
    FaultySimulator, fault for fault."""
    netlist = generate_core(CoreConfig(datawidth=8))
    faults = enumerate_fault_sites(netlist, stride=211)
    lanes = len(faults)
    vector = NumpySimulator(netlist, lanes, faults=faults)
    scalars = [FaultySimulator(netlist, fault) for fault in faults]
    rng = random.Random(17)
    for cycle in range(15):
        stimulus = random_stimulus(netlist, rng, cycle)
        for name, value in stimulus.items():
            vector.set_input(name, value)
            for sim in scalars:
                sim.set_input(name, value)
        vector.settle()
        for sim in scalars:
            sim.settle()
        for name in netlist.outputs:
            assert vector.read_output(name) == [
                sim.read_output(name) for sim in scalars
            ], f"cycle {cycle}, output {name}"
        vector.tick()
        for sim in scalars:
            sim.tick()


class TestLaneModeGuards:
    @pytest.mark.parametrize(
        "simulator", [BitParallelSimulator, NumpySimulator],
        ids=lambda s: s.__name__,
    )
    def test_toggle_counts_raise_in_lane_mode(self, simulator):
        """Lane backends must refuse toggle/power queries loudly
        instead of silently returning nothing."""
        netlist = generate_core(CoreConfig(datawidth=4))
        sim = simulator(netlist, 4)
        sim.reset()
        sim.settle()
        with pytest.raises(UnsupportedInLaneMode, match="lane mode"):
            sim.toggle_counts()


class TestFixedPointBehaviour:
    @pytest.mark.parametrize("backend", ["interpreted", "bigint", "numpy"])
    def test_step_with_memory_converges(self, backend):
        """The register behind ``addr_a`` loads the word it addresses:
        a loop through a flop, which the clock schedule accepts."""
        netlist = memory_netlist(through_flop)
        lane_simulator = {"bigint": BitParallelSimulator, "numpy": NumpySimulator}
        if backend in lane_simulator:
            sim = lane_simulator[backend](netlist, 1)

            def read(name):
                return sim.read_output(name)[0]
        else:
            sim = CycleSimulator(netlist)
            read = sim.read_output
        memory = [(3 * i) % 16 for i in range(16)]
        memory[0] = 5
        sim.reset()
        schedule = clock_schedule(netlist)
        addresses = []
        for _ in range(3):
            schedule.clock(sim, read, lambda pc: 0, memory.__getitem__)
            addresses.append(read("addr_a"))
        assert addresses == [5, 15, 13]


class TestCampaignEquivalence:
    def test_all_backends_agree(self):
        program = assemble(
            ".word x 3\n.word y 5\nADD x, y\nSTORE y, 1\nHALT\n", name="tiny"
        )
        campaigns = {
            backend: run_fault_campaign(program, stride=31, backend=backend)
            for backend in ("interpreted", "batched", "numpy")
        }
        reference = campaigns["interpreted"]
        for backend, campaign in campaigns.items():
            assert campaign.total == reference.total, backend
            assert campaign.detected == reference.detected, backend
            assert campaign.undetected_sites == reference.undetected_sites, backend

    def test_batched_partial_final_batch(self):
        """A site count that does not divide the lane width still
        covers every fault exactly once."""
        program = assemble(".word x 1\nSTORE x, 2\nHALT\n", name="simple")
        campaign = run_fault_campaign(program, stride=40, backend="batched", lanes=7)
        assert campaign.total == campaign.detected + len(campaign.undetected_sites)
        assert campaign.total > 7

    def test_numpy_packed_campaign_equals_scalar_runs(self):
        """An N-fault packed numpy campaign detects exactly the same
        faults as N independent interpreted runs -- the lane packing
        property, checked fault for fault (lanes=5 forces several
        partial batches)."""
        program = assemble(
            ".word x 3\n.word y 5\nADD x, y\nSTORE y, 1\nHALT\n", name="tiny"
        )
        scalar = run_fault_campaign(program, stride=13, backend="interpreted")
        packed = run_fault_campaign(program, stride=13, backend="numpy", lanes=5)
        assert packed.total == scalar.total
        assert packed.detected == scalar.detected
        assert packed.undetected_sites == scalar.undetected_sites


class TestCompiledCosim:
    # One kernel per core datawidth, verified gate-level on the
    # compiled kernel at one bigint lane (4-bit cores run coalesced
    # 8-bit kernels).
    MATRIX = [("mult", 8, 4), ("mult", 8, 8), ("intAvg", 16, 16), ("mult", 32, 32)]

    @pytest.mark.parametrize("name,kernel_width,core_width", MATRIX)
    def test_kernel_verifies_compiled(self, name, kernel_width, core_width):
        from repro.programs import build_benchmark

        program = build_benchmark(name, kernel_width, core_width)
        mismatches = cosim_verify(program, backend="compiled")
        assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


class TestCaching:
    def test_generate_core_is_memoized(self):
        config = CoreConfig(datawidth=8, num_bars=4)
        assert generate_core(config) is generate_core(CoreConfig(datawidth=8, num_bars=4))

    def test_compiled_code_cached_on_netlist(self):
        netlist = generate_core(CoreConfig(datawidth=8))
        assert compiled_netlist(netlist) is compiled_netlist(netlist)

    def test_numpy_code_cached_on_netlist(self):
        from repro.netlist.nsim import numpy_netlist

        netlist = generate_core(CoreConfig(datawidth=8))
        assert numpy_netlist(netlist) is numpy_netlist(netlist)

    def test_numpy_cache_dropped_on_pickle(self):
        import pickle

        from repro.netlist.nsim import numpy_netlist

        netlist = generate_core(CoreConfig(datawidth=4))
        numpy_netlist(netlist)
        clone = pickle.loads(pickle.dumps(netlist))
        assert not hasattr(clone, "_numpy_sim")
        # And the clone recompiles to working kernels.
        sim = NumpySimulator(clone, 2)
        sim.reset()
        sim.settle()

    def test_unknown_backend_rejected(self):
        program = assemble(".word x 1\nSTORE x, 2\nHALT\n", name="simple")
        with pytest.raises(SimulationError, match="backend 'jit'"):
            CoSimHarness(program, backend="jit")
