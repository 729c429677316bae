"""Differential executor: agreement on clean cores, detection on
faulty ones, and the program-specific BAR renumbering."""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.isa.spec import Instruction, MemOperand, Mnemonic
from repro.verify.differential import (
    differential_check,
    fault_site_for_output,
    lane_verify,
    ps_isa_variant,
    remap_bars,
)
from repro.verify.generator import random_program


class TestAgreement:
    @pytest.mark.parametrize("config", [
        CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2),
        CoreConfig(datawidth=4, pipeline_stages=2, num_bars=4),
    ], ids=lambda c: c.name)
    def test_all_executors_agree(self, config):
        for seed in range(3):
            program = random_program(
                seed, datawidth=config.datawidth, num_bars=config.num_bars
            )
            divergences = differential_check(program, config, seed=seed)
            assert not divergences, "; ".join(str(d) for d in divergences)

    @pytest.mark.parametrize("executors", [("bogus",), ("numpy", "ps_isa")])
    def test_unknown_executor_rejected(self, executors):
        from repro.verify.corpus import run_campaign

        config = CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2)
        program = random_program(0, datawidth=8, num_bars=2)
        with pytest.raises(ConfigError, match="ps-isa"):
            differential_check(program, config, executors=executors)
        with pytest.raises(ConfigError, match="unknown executor"):
            run_campaign([0], configs=(config,), executors=executors)

    def test_bitparallel_batches_lanes(self):
        config = CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2)
        programs = [random_program(seed, 8, 2) for seed in range(6)]
        reports = lane_verify(programs, config)
        assert len(reports) == len(programs)
        assert all(not lane for lane in reports)


class TestFaultDetection:
    def test_injected_fault_diverges(self):
        config = CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2)
        fault = fault_site_for_output(generate_core(config), "wdata", 0)
        caught = sum(
            1 for seed in range(4)
            if differential_check(
                random_program(seed, 8, 2), config,
                executors=("bitparallel",), fault=fault, seed=seed,
            )
        )
        assert caught == 4

    def test_fault_site_rejects_unknown_bus(self):
        from repro.errors import ReproError

        netlist = generate_core(CoreConfig(datawidth=4))
        with pytest.raises(ReproError):
            fault_site_for_output(netlist, "no_such_bus")


class TestBarRemap:
    def sparse_bar_program(self):
        """Touches only BAR 2 of 4 -- the shrunken core keeps one BAR."""
        return Program(
            name="sparse_bars",
            instructions=[
                Instruction(Mnemonic.STORE, dst=MemOperand(0), imm=2),
                Instruction(Mnemonic.SETBAR, bar_index=2, src=MemOperand(0)),
                Instruction(
                    Mnemonic.ADD,
                    dst=MemOperand(offset=1, bar=2),
                    src=MemOperand(offset=1, bar=2),
                ),
            ],
            datawidth=8,
            num_bars=4,
            data={0: 0, 1: 7, 2: 0, 3: 9},
        )

    def test_remap_renumbers_densely(self):
        remapped = remap_bars(self.sparse_bar_program())
        setbar = remapped.instructions[1]
        assert setbar.bar_index == 1
        assert remapped.instructions[2].dst.bar == 1
        assert remapped.num_bars == 2

    def test_remap_is_identity_when_dense(self):
        program = random_program(0, datawidth=8, num_bars=2)
        assert remap_bars(program) is program

    def test_sparse_bar_program_verifies_on_ps_core(self):
        base = CoreConfig(datawidth=8, pipeline_stages=1, num_bars=4)
        program = self.sparse_bar_program()
        divergences = differential_check(
            program, base, executors=("ps-isa",)
        )
        assert not divergences, "; ".join(str(d) for d in divergences)

    def test_off_end_halt_gets_representable_pc(self):
        # 4 instructions halt at PC 4; a ceil(log2 4) = 2-bit PC would
        # wrap to 0 and re-run the program forever.
        program = Program(
            name="off_end",
            instructions=[
                Instruction(Mnemonic.STORE, dst=MemOperand(0), imm=1),
                Instruction(Mnemonic.ADD, dst=MemOperand(0), src=MemOperand(1)),
                Instruction(Mnemonic.ADD, dst=MemOperand(0), src=MemOperand(1)),
                Instruction(Mnemonic.ADD, dst=MemOperand(0), src=MemOperand(1)),
            ],
            datawidth=8,
            num_bars=2,
            data={0: 0, 1: 5},
        )
        base = CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2)
        _, config = ps_isa_variant(program, base)
        assert config.pc_bits >= 3
        divergences = differential_check(program, base, executors=("ps-isa",))
        assert not divergences, "; ".join(str(d) for d in divergences)
