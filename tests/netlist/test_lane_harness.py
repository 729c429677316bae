"""The shared LaneMemoryHarness behind both lane-packed consumers.

The fault campaign and the differential verifier used to each carry a
private copy of the behavioural ROM/RAM loop; these tests pin the
unified harness against the scalar :class:`CoSimHarness` reference on
both backends (bigint list path, numpy array path) and against each
other, for shared- and per-lane-ROM packings.
"""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.cosim import CoSimHarness, halt_word_encoder, initial_memory
from repro.coregen.generator import generate_core
from repro.coregen.isa_map import encode_program_for_core
from repro.errors import SimulationError
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.lanes import LaneMemoryHarness
from repro.netlist.nsim import NumpySimulator
from repro.programs import build_benchmark

CYCLES = 40


@pytest.fixture(scope="module")
def setup():
    config = CoreConfig(datawidth=8)
    netlist = generate_core(config)
    programs = [build_benchmark("mult", 8, 8), build_benchmark("crc8", 8, 8)]
    roms = [encode_program_for_core(p, config) for p in programs]
    memories = [initial_memory(p, config) for p in programs]
    return config, netlist, programs, roms, memories


def _scalar_reference(program, config):
    harness = CoSimHarness(program, config)
    for _ in range(CYCLES):
        harness.step()
    return list(harness.memory), harness.pc


def _lane_state(harness):
    return harness.memory_rows(), harness.sim.read_output("pc")


class TestLaneMemoryHarness:
    def test_list_path_matches_scalar_reference(self, setup):
        config, netlist, programs, roms, memories = setup
        sim = BitParallelSimulator(netlist, len(programs))
        harness = LaneMemoryHarness(
            sim, lanes=len(programs), roms=roms, memories=memories,
            halt_word=halt_word_encoder(config),
        )
        assert not harness.array_mode
        harness.run(CYCLES)
        rows, pcs = _lane_state(harness)
        for lane, program in enumerate(programs):
            memory, pc = _scalar_reference(program, config)
            assert rows[lane] == memory
            assert pcs[lane] == pc

    def test_array_path_matches_list_path(self, setup):
        config, netlist, programs, roms, memories = setup
        lanes = len(programs)
        halt = halt_word_encoder(config)
        bigint = LaneMemoryHarness(
            BitParallelSimulator(netlist, lanes), lanes=lanes,
            roms=roms, memories=memories, halt_word=halt,
        )
        vector = LaneMemoryHarness(
            NumpySimulator(netlist, lanes), lanes=lanes,
            roms=roms, memories=memories, halt_word=halt,
            pc_bits=len(netlist.outputs["pc"].nets),
        )
        assert vector.array_mode
        bigint.run(CYCLES)
        vector.run(CYCLES)
        assert _lane_state(bigint) == _lane_state(vector)

    def test_shared_rom_matches_per_lane_rom(self, setup):
        config, netlist, programs, roms, memories = setup
        halt = halt_word_encoder(config)
        shared = LaneMemoryHarness(
            BitParallelSimulator(netlist, 2), lanes=2,
            rom=roms[0], base_memory=memories[0], halt_word=halt,
        )
        per_lane = LaneMemoryHarness(
            BitParallelSimulator(netlist, 2), lanes=2,
            roms=[roms[0], roms[0]],
            memories=[memories[0], memories[0]], halt_word=halt,
        )
        shared.run(CYCLES)
        per_lane.run(CYCLES)
        assert _lane_state(shared) == _lane_state(per_lane)

    def test_halt_word_memo_is_shared(self, setup):
        config, netlist, programs, roms, memories = setup
        memo = {}
        harness = LaneMemoryHarness(
            NumpySimulator(netlist, 1), lanes=1,
            rom=roms[0], base_memory=memories[0],
            halt_word=halt_word_encoder(config), halt_words=memo,
            pc_bits=len(netlist.outputs["pc"].nets),
        )
        # Building the fetch table fills the memo for padded PCs.
        assert memo
        assert set(memo) == set(
            range(len(roms[0]), 1 << len(netlist.outputs["pc"].nets))
        )

    def test_constructor_validation(self, setup):
        config, netlist, programs, roms, memories = setup
        halt = halt_word_encoder(config)
        sim = BitParallelSimulator(netlist, 2)
        with pytest.raises(SimulationError):
            LaneMemoryHarness(sim, lanes=2, halt_word=halt,
                              base_memory=memories[0])
        with pytest.raises(SimulationError):
            LaneMemoryHarness(sim, lanes=2, rom=roms[0], roms=roms,
                              base_memory=memories[0], halt_word=halt)
        with pytest.raises(SimulationError):
            LaneMemoryHarness(sim, lanes=3, roms=roms,
                              memories=memories, halt_word=halt)
        with pytest.raises(SimulationError, match="pc_bits"):
            LaneMemoryHarness(
                NumpySimulator(netlist, 2), lanes=2, roms=roms,
                memories=memories, halt_word=halt,
            )
