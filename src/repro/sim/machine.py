"""Functional TP-ISA instruction-set simulator.

The :class:`Machine` executes a :class:`~repro.isa.program.Program`
with exact architectural semantics (modular arithmetic at the
configured datawidth, carry-chained coalescing operations, BAR-relative
addressing) and records the dynamic statistics the evaluation flow
needs.  It also tracks the hazard events from which
:mod:`repro.sim.pipeline` derives multi-stage cycle counts.

Halting convention: a taken unconditional branch to its own address
(the assembler's ``HALT``) stops execution, as does the PC running off
the end of the program.

The program is decoded once, at construction, into one plain tuple per
PC; :meth:`Machine.run` and :meth:`Machine.step` share one loop over
those tuples that keeps the PC, the flags and the dynamic counters in
locals and writes them back once per call.  Checks that depend only on
the instruction (a BAR the core lacks, a STORE immediate wider than the
datawidth, a SETBAR index past the BARs) are found at decode but raised
only when the instruction executes; effective addresses are checked as
they are used.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa.program import MAX_INSTRUCTIONS, Program
from repro.isa.spec import OP_TABLE, Flag, Instruction, MemOperand, Mnemonic
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import gauge as _obs_gauge
from repro.obs.runtime import STATE as _OBS

#: Safety valve for runaway programs.
DEFAULT_MAX_STEPS = 5_000_000

# Flushed as aggregates at the end of :meth:`Machine.run`, so the
# per-instruction hot loop carries no instrumentation at all.
_INSTRUCTIONS = _obs_counter("iss.instructions_retired")
_RUNS = _obs_counter("iss.runs")
_WORKING_SET = _obs_gauge("iss.trace_working_set")

# Decoded instruction kinds, tested by the loop in this order.  _FAULT
# is an instruction that fails a static check; _END fills every PC past
# the program, where running off the end halts.
_BINARY, _UNARY, _BRN, _BR, _SETBAR, _STORE, _HALT, _FAULT, _END = range(9)
# Operations of the _BINARY (two-read) and _UNARY (read src, write dst)
# kinds.  CMP and TEST are SUB and AND without the write.
_OR, _XOR, _AND, _SUB, _ADD, _SBB, _ADC = range(7)
_RLC, _RRC, _RL, _RR, _RRA, _NOT = range(6)
_OPS = {
    Mnemonic.OR: (_BINARY, _OR),
    Mnemonic.XOR: (_BINARY, _XOR),
    Mnemonic.AND: (_BINARY, _AND),
    Mnemonic.TEST: (_BINARY, _AND),
    Mnemonic.SUB: (_BINARY, _SUB),
    Mnemonic.CMP: (_BINARY, _SUB),
    Mnemonic.ADD: (_BINARY, _ADD),
    Mnemonic.SBB: (_BINARY, _SBB),
    Mnemonic.ADC: (_BINARY, _ADC),
    Mnemonic.RLC: (_UNARY, _RLC),
    Mnemonic.RRC: (_UNARY, _RRC),
    Mnemonic.RL: (_UNARY, _RL),
    Mnemonic.RR: (_UNARY, _RR),
    Mnemonic.RRA: (_UNARY, _RRA),
    Mnemonic.NOT: (_UNARY, _NOT),
    Mnemonic.BRN: (_BRN, 0),
    Mnemonic.BR: (_BR, 0),
    Mnemonic.SETBAR: (_SETBAR, 0),
    Mnemonic.STORE: (_STORE, 0),
}
# Per mnemonic: kind, op, and the statistics one execution adds --
# (mnemonic, memory reads, memory writes, branches).
_STATIC = {
    mnemonic: (*_OPS[mnemonic], (mnemonic.value, spec.reads, int(spec.writes), spec.b))
    for mnemonic, spec in OP_TABLE.items()
}
_PAST_END = (_END, 0, 0, 0, 0, 0, 0, 0)


@dataclass
class ExecutionStats:
    """Dynamic statistics of one program run.

    Attributes:
        instructions: Dynamic instruction count.
        fetches: Instruction-memory accesses (one per instruction).
        memory_reads: Data-memory read accesses.
        memory_writes: Data-memory write accesses.
        branches: Dynamic branch count.
        taken_branches: Branches that redirected the PC.
        raw_hazards: Adjacent read-after-write address collisions
            (instruction *i+1* reads an address *i* wrote) -- the
            events that stall a 3-stage pipeline.
        mnemonic_counts: Dynamic count per mnemonic.
        touched_addresses: Set of data addresses read or written.
    """

    instructions: int = 0
    fetches: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    read_phases: int = 0
    write_phases: int = 0
    branches: int = 0
    taken_branches: int = 0
    raw_hazards: int = 0
    mnemonic_counts: Counter = field(default_factory=Counter)
    touched_addresses: set = field(default_factory=set)

    @property
    def memory_accesses(self) -> int:
        return self.memory_reads + self.memory_writes

    def data_words_used(self) -> int:
        """Number of distinct data words the run touched."""
        return len(self.touched_addresses)


@dataclass
class RunResult:
    """Outcome of :meth:`Machine.run`."""

    halted: bool
    stats: ExecutionStats
    final_pc: int


def _decode(program: Program, num_bars: int, mask: int) -> tuple[list, list]:
    """The program as one tuple per PC, padded to the 8-bit PC space, and
    the statistics each PC adds per execution.

    A code tuple is ``(kind, op, dst_bar, dst_offset, src_bar, src_offset,
    value, next_pc)``: ``value`` is the write flag of a _BINARY, the STORE
    immediate, the SETBAR index or the branch target, and ``op`` is a
    branch's flag mask.
    """
    code, tally = [], []
    for pc, instruction in enumerate(program.instructions):
        kind, op, counts = _STATIC[instruction.mnemonic]
        dst, src = instruction.dst, instruction.src
        dst_bar, dst_offset = (0, 0) if dst is None else (dst.bar, dst.offset)
        src_bar, src_offset = (0, 0) if src is None else (src.bar, src.offset)
        if kind == _BINARY:
            value = counts[2]  # memory writes: 0 for CMP and TEST
        elif kind == _STORE:
            value = instruction.imm
        elif kind == _SETBAR:
            value = instruction.bar_index
        elif kind == _UNARY:
            value = 0
        else:
            op, value = instruction.mask, instruction.target
            if kind == _BRN and op == 0 and value == pc:
                kind = _HALT
        if (
            dst_bar >= num_bars
            or src_bar >= num_bars
            or (kind == _STORE and value > mask)
            or (kind == _SETBAR and value >= num_bars)
        ):
            kind = _FAULT
        code.append(
            (kind, op, dst_bar, dst_offset, src_bar, src_offset, value, (pc + 1) & 0xFF)
        )
        tally.append(counts)
    code += [_PAST_END] * (MAX_INSTRUCTIONS - len(code))
    return code, tally


class Machine:
    """TP-ISA architectural simulator.

    Args:
        program: The program image to execute, decoded here once.
        mem_size: Data-memory words available (defaults to the full
            256-word architectural space).
        num_bars: Number of base-address registers (defaults to the
            program's declared configuration).
        fetch_trace: Optional :class:`~repro.sim.trace.FetchTrace` that
            records every fetched PC.
    """

    def __init__(
        self,
        program: Program,
        mem_size: int = 256,
        num_bars: int | None = None,
        fetch_trace=None,
    ) -> None:
        if mem_size < 1 or mem_size > 256:
            raise SimulationError(f"mem_size {mem_size} out of range (1..256)")
        self.program = program
        self.mem_size = mem_size
        self.num_bars = num_bars if num_bars is not None else program.num_bars
        if self.num_bars < 1:
            raise SimulationError("need at least BAR[0]")
        self.width = program.datawidth
        self.mask = (1 << self.width) - 1
        self.fetch_trace = fetch_trace
        # Per PC: the decoded instruction, and the statistics one
        # execution adds, folded by execution count after each call.
        self._code, self._tally = _decode(program, self.num_bars, self.mask)
        self.reset()

    def reset(self) -> None:
        """Return to the architectural reset state and reload data."""
        self.pc = 0
        self.flags = 0
        self.bars = [0] * self.num_bars
        self.memory = [0] * self.mem_size
        for address, value in self.program.data.items():
            if address >= self.mem_size:
                raise SimulationError(
                    f"initial data at {address} exceeds memory size {self.mem_size}"
                )
            self.memory[address] = value & self.mask
        self.stats = ExecutionStats()
        self.halted = False
        self._last_write = -1  # address the previous instruction wrote

    # -- memory helpers ----------------------------------------------------

    def effective_address(self, operand: MemOperand) -> int:
        """BAR-relative address resolution (modulo the 8-bit space)."""
        if operand.bar >= self.num_bars:
            raise SimulationError(
                f"operand uses BAR {operand.bar} but core has {self.num_bars}"
            )
        address = (self.bars[operand.bar] + operand.offset) & 0xFF
        if address >= self.mem_size:
            raise SimulationError(
                f"effective address {address} exceeds memory size {self.mem_size}"
            )
        return address

    def _data_address(self, symbol_or_address) -> int:
        address = (
            self.program.address_of(symbol_or_address)
            if isinstance(symbol_or_address, str)
            else symbol_or_address
        )
        if not 0 <= address < self.mem_size:
            raise SimulationError(
                f"data address {address} outside memory of {self.mem_size} words"
            )
        return address

    def load(self, symbol_or_address, value: int) -> None:
        """Poke a data word (symbol name or address) -- harness helper."""
        self.memory[self._data_address(symbol_or_address)] = value & self.mask

    def peek(self, symbol_or_address) -> int:
        """Read a data word (symbol name or address) -- harness helper."""
        return self.memory[self._data_address(symbol_or_address)]

    @property
    def carry(self) -> int:
        return 1 if self.flags & Flag.C else 0

    # -- execution ------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (no-op once halted)."""
        self._execute(1)

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
        """Run until halt or ``max_steps``.

        Raises:
            SimulationError: If the step budget is exhausted before the
                program halts (runaway loop).
        """
        executed_before = self.stats.instructions
        try:
            self._execute(max_steps)
            if not self.halted:
                raise SimulationError(
                    f"{self.program.name}: no halt within {max_steps} steps"
                )
        finally:
            if _OBS.enabled:
                _RUNS.inc()
                _INSTRUCTIONS.inc(self.stats.instructions - executed_before)
                if self.fetch_trace is not None:
                    _WORKING_SET.set(self.fetch_trace.unique_addresses())
        return RunResult(halted=self.halted, stats=self.stats, final_pc=self.pc)

    def _execute(self, budget: int) -> None:
        """Run up to ``budget`` steps; running off the end takes one.

        Executions are counted per PC and folded into :attr:`stats` in
        first-execution order on the way out, so ``mnemonic_counts``
        keeps the order of first execution.  An instruction that fails a
        check raises with ``pc`` on itself and changes nothing: no state,
        statistic or fetch-trace entry.  Data memory is ``mem_size``
        words, so an effective address past it raises ``IndexError``
        before the access; :meth:`_check` turns that into the message.
        Results are masked only where they can exceed the datawidth:
        words read are within it, as :meth:`load` and :meth:`reset` mask.
        """
        if self.halted:
            return
        code = self._code
        memory = self.memory
        bars = self.bars
        mask = self.mask
        top = self.width - 1
        sign = 1 << top
        touch = self.stats.touched_addresses.add
        record = None if self.fetch_trace is None else self.fetch_trace.record
        hits = defaultdict(int)
        pc = self.pc
        flags = self.flags
        last = self._last_write
        taken = hazards = 0
        halted = False
        failure = None
        try:
            for _ in range(budget):
                kind, op, b1, o1, b2, o2, value, nxt = code[pc]
                if kind == _BINARY:
                    a1 = (bars[b1] + o1) & 0xFF
                    a2 = (bars[b2] + o2) & 0xFF
                    x = memory[a1]
                    y = memory[a2]
                    if op == _OR:
                        r = x | y
                        cv = 0
                    elif op == _XOR:
                        r = x ^ y
                        cv = 0
                    elif op == _AND:
                        r = x & y
                        cv = 0
                    else:
                        if op == _SUB:
                            y = ~y & mask
                            total = x + y + 1
                        elif op == _ADD:
                            total = x + y
                        elif op == _SBB:
                            y = ~y & mask
                            total = x + y + ((flags >> 1) & 1)
                        else:  # ADC
                            total = x + y + ((flags >> 1) & 1)
                        r = total & mask
                        cv = (2 if total > mask else 0) | (
                            1 if ~(x ^ y) & (x ^ r) & sign else 0
                        )
                    if last == a1 or last == a2:
                        hazards += 1
                    touch(a1)
                    touch(a2)
                    if value:
                        memory[a1] = r
                        last = a1
                    else:
                        last = -1
                    flags = (8 if r & sign else 0 if r else 4) | cv
                elif kind == _UNARY:
                    a2 = (bars[b2] + o2) & 0xFF
                    y = memory[a2]
                    if op == _RLC:
                        r = ((y << 1) | ((flags >> 1) & 1)) & mask
                        c = y & sign
                    elif op == _RRC:
                        r = (y >> 1) | (((flags >> 1) & 1) << top)
                        c = y & 1
                    elif op == _RL:
                        r = ((y << 1) | (y >> top)) & mask
                        c = y & sign
                    elif op == _RR:
                        r = (y >> 1) | ((y & 1) << top)
                        c = y & 1
                    elif op == _RRA:
                        r = (y >> 1) | (y & sign)
                        c = y & 1
                    else:  # NOT
                        r = ~y & mask
                        c = 0
                    a1 = (bars[b1] + o1) & 0xFF
                    memory[a1] = r
                    if last == a2:
                        hazards += 1
                    touch(a2)
                    touch(a1)
                    last = a1
                    flags = (8 if r & sign else 0 if r else 4) | (2 if c else 0)
                elif kind == _BRN:
                    if not flags & op:
                        taken += 1
                        nxt = value
                    last = -1
                elif kind == _BR:
                    if flags & op:
                        taken += 1
                        nxt = value
                    last = -1
                elif kind == _SETBAR:
                    a2 = (bars[b2] + o2) & 0xFF
                    y = memory[a2]
                    if last == a2:
                        hazards += 1
                    touch(a2)
                    bars[value] = y & 0xFF
                    last = -1
                elif kind == _STORE:
                    a1 = (bars[b1] + o1) & 0xFF
                    memory[a1] = value
                    touch(a1)
                    last = a1
                elif kind == _HALT:
                    hits[pc] += 1
                    if record is not None:
                        record(pc)
                    taken += 1
                    last = -1
                    halted = True
                    break
                elif kind == _END:
                    halted = True
                    break
                else:  # _FAULT: a static check fails
                    self._check(self.program.instructions[pc])
                hits[pc] += 1
                if record is not None:
                    record(pc)
                pc = nxt
        except IndexError as error:
            failure = error
        finally:
            self.pc = pc
            self.flags = flags
            self.halted = halted
            self._last_write = last
            self._fold(hits, taken, hazards)
        if failure is not None:
            self._check(self.program.instructions[pc])
            raise failure

    def _check(self, instruction: Instruction) -> None:
        """Raise the first check ``instruction`` fails, in this order:
        each operand read (its BAR, then its address), the STORE
        immediate, the operand written, the SETBAR index."""
        mnemonic = instruction.mnemonic
        for operand in instruction.memory_reads():
            self.effective_address(operand)
        if mnemonic is Mnemonic.STORE and instruction.imm > self.mask:
            raise SimulationError(
                f"STORE immediate {instruction.imm} exceeds {self.width}-bit width"
            )
        if instruction.spec.writes:
            self.effective_address(instruction.dst)
        if mnemonic is Mnemonic.SETBAR and instruction.bar_index >= self.num_bars:
            raise SimulationError(
                f"SETBAR {instruction.bar_index} but core has {self.num_bars} BARs"
            )

    def _fold(self, hits, taken: int, hazards: int) -> None:
        """Add one call's per-PC execution counts to :attr:`stats`."""
        stats = self.stats
        counts = stats.mnemonic_counts
        tally = self._tally
        executed = reads = writes = read_phases = branches = 0
        for pc, times in hits.items():
            mnemonic, pc_reads, pc_writes, pc_branches = tally[pc]
            counts[mnemonic] += times
            executed += times
            reads += pc_reads * times
            if pc_reads:
                read_phases += times
            writes += pc_writes * times
            branches += pc_branches * times
        stats.instructions += executed
        stats.fetches += executed
        stats.memory_reads += reads
        stats.memory_writes += writes
        stats.read_phases += read_phases
        stats.write_phases += writes
        stats.branches += branches
        stats.taken_branches += taken
        stats.raw_hazards += hazards
