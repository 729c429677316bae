"""Tests for the TP-ISA instruction-set simulator."""

import re
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.spec import Flag
from repro.programs import build_benchmark
from repro.sim.machine import Machine
from repro.sim.trace import FetchTrace


def run_source(source, **pokes):
    machine = Machine(assemble(source))
    for symbol, value in pokes.items():
        machine.load(symbol, value)
    machine.run()
    return machine


class TestArithmetic:
    @settings(max_examples=40)
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_add_sets_result_and_carry(self, a, b):
        machine = run_source(".word x\n.word y\nADD x, y\nHALT\n", x=a, y=b)
        assert machine.peek("x") == (a + b) & 0xFF
        assert machine.carry == (a + b) >> 8

    @settings(max_examples=40)
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_sub_two_complement(self, a, b):
        machine = run_source(".word x\n.word y\nSUB x, y\nHALT\n", x=a, y=b)
        assert machine.peek("x") == (a - b) & 0xFF
        assert machine.carry == (1 if a >= b else 0)

    @settings(max_examples=40)
    @given(a=st.integers(0, 65535), b=st.integers(0, 65535))
    def test_multiword_add_via_adc(self, a, b):
        """Data coalescing: 16-bit add on an 8-bit machine."""
        source = (
            ".word alo\n.word ahi\n.word blo\n.word bhi\n"
            "ADD alo, blo\nADC ahi, bhi\nHALT\n"
        )
        machine = run_source(
            source, alo=a & 0xFF, ahi=a >> 8, blo=b & 0xFF, bhi=b >> 8
        )
        result = machine.peek("alo") | (machine.peek("ahi") << 8)
        assert result == (a + b) & 0xFFFF

    @settings(max_examples=40)
    @given(a=st.integers(0, 65535), b=st.integers(0, 65535))
    def test_multiword_subtract_via_sbb(self, a, b):
        source = (
            ".word alo\n.word ahi\n.word blo\n.word bhi\n"
            "SUB alo, blo\nSBB ahi, bhi\nHALT\n"
        )
        machine = run_source(
            source, alo=a & 0xFF, ahi=a >> 8, blo=b & 0xFF, bhi=b >> 8
        )
        result = machine.peek("alo") | (machine.peek("ahi") << 8)
        assert result == (a - b) & 0xFFFF

    def test_cmp_sets_flags_without_writing(self):
        machine = run_source(".word x\n.word y\nCMP x, y\nHALT\n", x=7, y=7)
        assert machine.peek("x") == 7
        assert machine.flags & Flag.Z

    def test_overflow_flag(self):
        machine = run_source(".word x\n.word y\nADD x, y\nHALT\n", x=0x7F, y=0x01)
        assert machine.flags & Flag.V
        assert machine.flags & Flag.S


class TestLogicAndRotates:
    @settings(max_examples=30)
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_logic_ops(self, a, b):
        source = (
            ".word x\n.word y\n.word x2\n.word x3\n"
            "AND x, y\nHALT\n"
        )
        machine = run_source(source, x=a, y=b)
        assert machine.peek("x") == a & b

    def test_not_is_unary_from_src(self):
        machine = run_source(".word d\n.word s\nNOT d, s\nHALT\n", s=0b10101010)
        assert machine.peek("d") == 0b01010101

    @settings(max_examples=30)
    @given(a=st.integers(0, 255))
    def test_rl_rotate(self, a):
        machine = run_source(".word x\nRL x, x\nHALT\n", x=a)
        assert machine.peek("x") == ((a << 1) | (a >> 7)) & 0xFF
        assert machine.carry == a >> 7

    @settings(max_examples=30)
    @given(a=st.integers(0, 65535))
    def test_multiword_shift_left_via_rlc(self, a):
        """16-bit logical shift left by 1 on an 8-bit machine: clear
        carry (TEST), then RLC low, RLC high."""
        source = (
            ".word lo\n.word hi\n.word zero\n"
            "TEST zero, zero\nRLC lo, lo\nRLC hi, hi\nHALT\n"
        )
        machine = run_source(source, lo=a & 0xFF, hi=a >> 8)
        result = machine.peek("lo") | (machine.peek("hi") << 8)
        assert result == (a << 1) & 0xFFFF

    def test_rra_preserves_sign(self):
        machine = run_source(".word x\nRRA x, x\nHALT\n", x=0b10000010)
        assert machine.peek("x") == 0b11000001
        assert machine.carry == 0

    def test_rrc_injects_old_carry(self):
        source = ".word x\n.word y\nADD y, y\nRRC x, x\nHALT\n"
        # y = 0x80 -> ADD gives carry=1; RRC shifts it into the MSB.
        machine = run_source(source, x=0, y=0x80)
        assert machine.peek("x") == 0x80


class TestControlFlow:
    def test_loop_counts(self):
        source = (
            ".word i 5\n.word one 1\n.word acc 0\n"
            "loop:\nADD acc, one\nSUB i, one\nBRN loop, Z\nHALT\n"
        )
        machine = run_source(source)
        assert machine.peek("acc") == 5

    def test_unconditional_brn_jumps(self):
        source = ".word x\nBRN skip, 0\nSTORE x, 1\nskip:\nHALT\n"
        machine = run_source(source)
        assert machine.peek("x") == 0

    def test_br_taken_on_flag(self):
        source = (
            ".word x\n.word y\nCMP x, y\nBR skip, Z\nSTORE x, 9\nskip:\nHALT\n"
        )
        machine = run_source(source, x=4, y=4)
        assert machine.peek("x") == 4

    def test_fall_off_end_halts(self):
        machine = Machine(assemble(".word x\nSTORE x, 3\n"))
        result = machine.run()
        assert result.halted
        assert machine.peek("x") == 3

    def test_runaway_raises(self):
        source = "loop:\nBR loop, 0\nBRN loop, 0\n"  # BR never taken; BRN loops
        machine = Machine(assemble(source))
        with pytest.raises(SimulationError, match="no halt"):
            machine.run(max_steps=100)


class TestBars:
    def test_setbar_offsets_addressing(self):
        source = (
            ".array buf 8\n.word ptr 4\n"
            "SETBAR 1, ptr\n"
            "STORE b1:2, 99\n"
            "HALT\n"
        )
        machine = run_source(source)
        assert machine.peek(6) == 99

    def test_setbar_is_dynamic(self):
        """A BAR can follow a computed index -- the property that lets
        loop kernels index arrays without unrolling."""
        source = (
            ".array buf 4\n.word i 0\n.word one 1\n"
            "loop:\nSETBAR 1, i\nSTORE b1:0, 7\nADD i, one\n"
            "CMP i, one\nBR loop, S\nHALT\n"
        )
        # Loop while i < 4: CMP i-1... simpler: run two iterations by hand.
        machine = Machine(assemble(source))
        for _ in range(3):  # SETBAR, STORE, ADD of first iteration
            machine.step()
        assert machine.peek(0) == 7
        machine.step()  # CMP (i=1, one=1 -> Z, not S)
        machine.step()  # BR not taken
        machine.run()
        assert machine.peek(1) != 7  # loop exited before second pass

    def test_bar_out_of_range_rejected(self):
        source = ".word p 1\nSETBAR 3, p\nHALT\n"
        machine = Machine(assemble(source))  # default 2 BARs
        with pytest.raises(SimulationError, match="BARs"):
            machine.run()

    def test_effective_address_beyond_memory_rejected(self):
        machine = Machine(assemble(".word x\nSTORE b1:0, 1\nHALT\n"), mem_size=4)
        machine.bars[1] = 10
        with pytest.raises(SimulationError, match="exceeds memory"):
            machine.run()


class TestStats:
    def test_counts_accumulate(self):
        source = (
            ".word i 3\n.word one 1\n"
            "loop:\nSUB i, one\nBRN loop, Z\nHALT\n"
        )
        machine = run_source(source)
        stats = machine.stats
        assert stats.instructions == 3 + 3 + 1  # 3 SUB, 3 BRN, 1 HALT
        assert stats.branches == 4
        assert stats.taken_branches == 2 + 1  # two loop backedges + HALT
        assert stats.memory_reads == 6  # SUB reads two words, thrice
        assert stats.memory_writes == 3

    def test_raw_hazard_detection(self):
        source = ".word x\n.word y\nADD x, y\nADD y, x\nHALT\n"
        machine = run_source(source, x=1, y=2)
        # Second ADD reads x, which the first ADD wrote.
        assert machine.stats.raw_hazards == 1

    def test_touched_addresses(self):
        machine = run_source(".word x\n.word y\nADD x, y\nHALT\n")
        assert machine.stats.data_words_used() == 2

    def test_wide_datawidth(self):
        source = ".width 32\n.word x\n.word y\nADD x, y\nHALT\n"
        machine = Machine(assemble(source))
        machine.load("x", 0xFFFFFFFF)
        machine.load("y", 1)
        machine.run()
        assert machine.peek("x") == 0
        assert machine.carry == 1


# Each check, with the instruction that fails it and its message.
FAILING = {
    "operand BAR": (".bars 2", "ADD b3:0, x", "operand uses BAR 3 but core has 2"),
    "effective address": ("", "STORE b1:0, 1", "effective address 9 exceeds memory size 8"),
    "STORE immediate": (".width 4", "STORE x, 20", "STORE immediate 20 exceeds 4-bit width"),
    "SETBAR index": (".bars 2", "SETBAR 3, x", "SETBAR 3 but core has 2 BARs"),
}


def failing_machine(check, skipped=False):
    directive, line, _ = FAILING[check]
    jump = "BRN end, 0\n" if skipped else ""
    source = f"{directive}\n.word x 1\n.word y\nADD y, x\n{jump}{line}\nend:\nHALT\n"
    machine = Machine(assemble(source), mem_size=8)
    machine.bars[1] = 9
    return machine


def snapshot(machine):
    return (
        machine.pc, machine.flags, list(machine.bars), list(machine.memory),
        machine.halted, repr(astuple(machine.stats)),
    )


class TestChecksAtExecution:
    @pytest.mark.parametrize("check", sorted(FAILING))
    def test_raises_when_the_instruction_executes(self, check):
        machine = failing_machine(check)
        machine.step()  # ADD y, x
        before = snapshot(machine)
        with pytest.raises(SimulationError, match=re.escape(FAILING[check][2])):
            machine.run()
        # pc stays on the failing instruction, which changed nothing.
        assert machine.pc == 1
        assert snapshot(machine) == before

    @pytest.mark.parametrize("check", sorted(FAILING))
    def test_skipped_instruction_halts_cleanly(self, check):
        machine = failing_machine(check, skipped=True)
        assert machine.run().halted
        assert machine.stats.instructions == 3  # ADD, BRN, HALT

    def test_budget_exhaustion_keeps_the_counts(self):
        machine = Machine(assemble("loop:\nBRN loop, Z\n"))
        with pytest.raises(SimulationError, match="no halt within 7 steps"):
            machine.run(max_steps=7)
        assert machine.stats.instructions == machine.stats.taken_branches == 7


STEP_PROGRAMS = [("crc8", 8, 8), ("mult", 16, 8), ("inSort", 8, 8), ("tHold", 32, 16)]


class TestStepAndRun:
    @pytest.mark.parametrize("name,kernel_width,core_width", STEP_PROGRAMS)
    @pytest.mark.parametrize("steps", [1, 2, 9, 40])
    def test_steps_then_run_equal_one_run(self, name, kernel_width, core_width, steps):
        program = build_benchmark(name, kernel_width, core_width)
        whole = Machine(program)
        whole.run()
        stepped = Machine(program)
        for _ in range(steps):
            stepped.step()
        stepped.run()
        assert snapshot(stepped) == snapshot(whole)

    def test_stepping_to_halt_equals_one_run(self):
        program = build_benchmark("crc8", 8, 8)
        whole = Machine(program)
        whole.run()
        stepped = Machine(program)
        while not stepped.halted:
            stepped.step()
        assert snapshot(stepped) == snapshot(whole)

    def test_step_after_halt_changes_nothing(self):
        trace = FetchTrace()
        machine = Machine(build_benchmark("mult", 8, 8), fetch_trace=trace)
        machine.run()
        before, fetched = snapshot(machine), len(trace)
        for _ in range(3):
            machine.step()
        assert machine.run().halted
        assert snapshot(machine) == before
        assert len(trace) == fetched

    def test_fetch_trace_records_the_pc_stream(self):
        source = ".word i 3\n.word one 1\nloop:\nSUB i, one\nBRN loop, Z\nHALT\n"
        trace = FetchTrace()
        machine = Machine(assemble(source), fetch_trace=trace)
        machine.step()
        machine.run()
        assert trace.addresses == [0, 1, 0, 1, 0, 1, 2]
        assert machine.stats.fetches == len(trace)

    def test_running_off_the_end_is_not_a_fetch(self):
        trace = FetchTrace()
        machine = Machine(assemble(".word x\nSTORE x, 3\n"), fetch_trace=trace)
        assert machine.run(max_steps=2).halted
        assert trace.addresses == [0]
        assert machine.stats.instructions == 1

    def test_poked_bar_takes_effect(self):
        machine = Machine(assemble(".array buf 8\nSTORE b1:1, 7\nHALT\n"))
        machine.bars[1] = 4
        machine.run()
        assert machine.peek(5) == 7
        assert machine.stats.touched_addresses == {5}


class TestHarnessAccess:
    @pytest.mark.parametrize("address", [-1, 8, 256])
    def test_load_outside_memory_rejected(self, address):
        machine = Machine(assemble(".word x\nHALT\n"), mem_size=8)
        with pytest.raises(SimulationError, match=f"address {address} outside .* 8 words"):
            machine.load(address, 5)
        assert machine.memory == [0] * 8

    @pytest.mark.parametrize("address", [-1, 8])
    def test_peek_outside_memory_rejected(self, address):
        machine = Machine(assemble(".word x\nHALT\n"), mem_size=8)
        with pytest.raises(SimulationError, match=f"address {address} outside"):
            machine.peek(address)

    def test_last_word_is_addressable(self):
        machine = Machine(assemble(".word x\nHALT\n"), mem_size=8)
        machine.load(7, 0x1FF)
        assert machine.peek(7) == 0xFF
