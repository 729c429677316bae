"""Gate-level vs ISS co-simulation: the equivalence evidence.

Every benchmark kernel family is executed instruction-by-instruction on
a generated single-stage core netlist (with behavioural ROM/RAM) and
the final architectural state -- PC, flags, BARs, all of data memory --
is compared against the reference simulator.
"""

import dataclasses

import pytest

from repro.errors import ConfigError, SimulationError
from repro.isa.analysis import analyze_program
from repro.isa.assembler import assemble
from repro.programs import build_benchmark
from repro.coregen.config import CoreConfig, program_specific_config
from repro.coregen.cosim import CoSimHarness, cosim_verify, initial_memory

# Kept quick: one representative kernel per family, plus the deep
# coalescing and dynamic-BAR configurations.
COSIM_MATRIX = [
    ("mult", 8, 8),
    ("mult", 16, 8),    # 2-word coalescing
    ("mult", 8, 4),     # 4-bit core, multi-word counter
    ("div", 8, 8),
    ("intAvg", 8, 8),
    ("intAvg", 16, 16),
    ("tHold", 8, 8),    # dynamic SETBAR loop
    ("crc8", 8, 8),     # rotate/carry interplay
    ("dTree", 8, 8),    # 256-word program, branch-heavy
]


@pytest.mark.parametrize("name,kernel_width,core_width", COSIM_MATRIX)
def test_gate_level_matches_iss(name, kernel_width, core_width):
    program = build_benchmark(name, kernel_width, core_width)
    mismatches = cosim_verify(program)
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


@pytest.mark.slow
def test_insort_gate_level_matches_iss():
    """inSort is the longest-running kernel (~20k cycles); kept in its
    own test so quick runs can deselect it with -m 'not slow'."""
    program = build_benchmark("inSort", 8, 8)
    mismatches = cosim_verify(program)
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


def test_four_bar_core_matches_iss():
    program = build_benchmark("tHold", 8, 8, num_bars=4)
    config = CoreConfig(datawidth=8, num_bars=4)
    mismatches = cosim_verify(program, config)
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


def test_program_specific_core_matches_iss():
    """The shrunken Section 7 core still executes its program exactly."""
    program = build_benchmark("mult", 8, 8)
    config = program_specific_config(
        CoreConfig(datawidth=8), analyze_program(program)
    )
    mismatches = cosim_verify(program, config)
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


def test_program_specific_dtree_matches_iss():
    program = build_benchmark("dTree", 8, 8)
    config = program_specific_config(
        CoreConfig(datawidth=8), analyze_program(program)
    )
    mismatches = cosim_verify(program, config)
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


@pytest.mark.parametrize("stages", [2, 3])
@pytest.mark.parametrize("name", ["mult", "div", "tHold", "crc8"])
def test_multistage_core_matches_iss(stages, name):
    """The pipeline control (flush on taken branches, stall on memory
    RAW and SETBAR hazards) is verified at gate level too."""
    program = build_benchmark(name, 8, 8)
    config = CoreConfig(datawidth=8, pipeline_stages=stages)
    mismatches = cosim_verify(program, config)
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


@pytest.mark.parametrize("stages", [2, 3])
def test_multistage_raw_hazard_chain(stages):
    """Back-to-back dependent memory ops: the worst case for the
    3-stage stall comparator."""
    source = (
        ".word a 1\n.word b 2\n.word c 3\n"
        "ADD a, b\nADD b, a\nADD c, b\nADD a, c\nCMP a, b\nBR done, Z\n"
        "ADD a, a\ndone:\nHALT\n"
    )
    program = assemble(source)
    mismatches = cosim_verify(program, CoreConfig(datawidth=8, pipeline_stages=stages))
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


@pytest.mark.parametrize("stages", [2, 3])
def test_multistage_setbar_hazard(stages):
    """SETBAR followed immediately by a BAR-relative access must stall
    in the 3-stage core."""
    source = (
        ".array buf 4\n.word ptr 2\n"
        "SETBAR 1, ptr\nSTORE b1:1, 77\nHALT\n"
    )
    program = assemble(source)
    mismatches = cosim_verify(program, CoreConfig(datawidth=8, pipeline_stages=stages))
    assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


def test_harness_exposes_architectural_state():
    source = ".word x 3\n.word y 4\nADD x, y\nHALT\n"
    harness = CoSimHarness(assemble(source))
    harness.step()  # ADD
    assert harness.memory[0] == 7
    harness.step()  # HALT (branch to self)
    assert harness.pc == 1


def test_initial_memory_masks_data_and_refuses_outside_addresses():
    config = CoreConfig(datawidth=4, address_bits=2)
    program = dataclasses.replace(
        assemble(".word x 3\nHALT\n"), data={0: 0x1F, 2: 6}
    )
    assert initial_memory(program, config) == [0xF, 0, 6, 0]
    outside = dataclasses.replace(program, data={4: 1})
    with pytest.raises(SimulationError, match="data at 4 exceeds the core"):
        initial_memory(outside, config)
