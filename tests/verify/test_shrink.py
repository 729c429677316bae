"""Shrinker: minimal deterministic repros, target remapping, emission."""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.isa.program import Program
from repro.isa.spec import Instruction, MemOperand, Mnemonic
from repro.verify.differential import fault_site_for_output
from repro.verify.generator import random_program
from repro.verify.shrink import (
    _remap_subset,
    emit_pytest_case,
    shrink,
)

CONFIG = CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2)


@pytest.fixture(scope="module")
def wdata_fault():
    return fault_site_for_output(generate_core(CONFIG), "wdata", 0)


class TestShrink:
    def test_fault_repro_shrinks_small_and_deterministic(self, wdata_fault):
        # The satellite acceptance bar: a seeded divergence shrinks to
        # at most 5 instructions, identically on every run.
        program = random_program(1, 8, 2)
        kwargs = dict(executors=("bitparallel",), fault=wdata_fault)
        first = shrink(program, CONFIG, **kwargs)
        second = shrink(program, CONFIG, **kwargs)
        assert first.size <= 5
        assert first.size < first.original_size
        assert first.program.instructions == second.program.instructions
        assert first.program.data == second.program.data

    def test_non_failing_program_is_rejected(self):
        program = random_program(0, 8, 2)
        with pytest.raises(ValueError):
            shrink(program, CONFIG, executors=("bitparallel",))

    def test_shrunk_program_still_fails(self, wdata_fault):
        from repro.verify.differential import differential_check

        result = shrink(
            random_program(2, 8, 2), CONFIG,
            executors=("bitparallel",), fault=wdata_fault,
        )
        assert differential_check(
            result.program, CONFIG, executors=("bitparallel",), fault=wdata_fault
        )
        # ... and agrees once the "defect" is gone.
        assert not differential_check(
            result.program, CONFIG, executors=("bitparallel",)
        )


class TestTargetRemap:
    def program(self, instructions):
        return Program(
            name="t", instructions=instructions, datawidth=8, num_bars=2,
            data={0: 1, 1: 2},
        )

    def test_branch_targets_follow_deletions(self):
        program = self.program([
            Instruction(Mnemonic.BR, target=3, mask=0xF),      # 0
            Instruction(Mnemonic.ADD, dst=MemOperand(0), src=MemOperand(1)),
            Instruction(Mnemonic.ADD, dst=MemOperand(0), src=MemOperand(1)),
            Instruction(Mnemonic.STORE, dst=MemOperand(0), imm=9),  # 3
        ])
        reduced = _remap_subset(program, [0, 3])
        assert reduced.instructions[0].target == 1

    def test_one_past_end_halt_target_survives(self):
        program = self.program([
            Instruction(Mnemonic.ADD, dst=MemOperand(0), src=MemOperand(1)),
            Instruction(Mnemonic.BRN, target=2, mask=0),
        ])
        reduced = _remap_subset(program, [1])
        assert reduced.instructions[0].target == 1


class TestEmission:
    def test_emitted_case_is_valid_python_and_rebuilds(self, wdata_fault):
        result = shrink(
            random_program(1, 8, 2), CONFIG,
            executors=("bitparallel",), fault=wdata_fault,
        )
        source = emit_pytest_case(
            result.program, CONFIG, seed=1, note="stuck-at-1 wdata[0]"
        )
        namespace = {}
        exec(compile(source, "<repro>", "exec"), namespace)
        rebuilt = namespace["build_program"]()
        assert rebuilt.instructions == result.program.instructions
        assert rebuilt.data == result.program.data
        assert namespace["CONFIG"] == CONFIG
        # The emitted test itself passes on the healthy netlist.
        namespace["test_differential_agreement"]()
