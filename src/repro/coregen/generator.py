"""Elaborate a :class:`CoreConfig` into a technology-mapped netlist.

The generated core is a Harvard-organization TP-ISA machine:

* ``instr`` input / ``pc`` output talk to an external instruction ROM;
* ``addr_a``/``addr_b`` outputs and ``rdata_a``/``rdata_b`` inputs talk
  to a dual-read-port data RAM with asynchronous read;
* ``we``/``waddr``/``wdata`` outputs commit one write per cycle.

Keeping the memories external matches the paper's methodology: cores
and memory arrays are characterized separately (Tables 2 vs 6) and
composed at the system level (Section 8).

Pipeline elaboration:

* 1 stage -- fully combinational from fetch to writeback.
* 2 stages (IF | EX) -- instruction + valid registers after fetch;
  taken branches flush the fetched slot.
* 3 stages (IF | RD | EX) -- address resolution and memory read in RD,
  execute/writeback in EX, with registered operands, a memory
  read-after-write stall comparator, and two-slot branch flush.

Construction style: every register's Q net is allocated *first* (state
feedback), all combinational logic is built against those nets, and the
flip-flop instances are placed last with their computed D drivers --
so feedback costs no buffer gates and the netlist stays minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.isa.spec import Flag
from repro.netlist.components import (
    add_subtract,
    decoder,
    equals_const,
    incrementer,
    is_zero,
    mux_bus,
    mux_tree,
    ripple_adder,
    zero_extend,
)
from repro.exec.cache import load_artifact, source_digest, store_artifact
from repro.netlist.core import Bus, CONST0, CONST1, Netlist
from repro.obs.metrics import counter as _obs_counter
from repro.obs.runtime import STATE as _OBS
from repro.obs.trace import span as _obs_span
from repro.coregen.config import CoreConfig

_MEMO_HITS = _obs_counter("coregen.memo_hits")
_MEMO_MISSES = _obs_counter("coregen.memo_misses")
_DISK_HITS = _obs_counter("coregen.disk_hits")

#: Artifact-cache bucket for elaborated netlists.
_ARTIFACT_KIND = "netlist"

#: Modules whose source feeds elaboration (artifact-cache key digest).
_ELABORATION_SOURCES = (
    "repro.coregen.generator",
    "repro.coregen.config",
    "repro.netlist.core",
    "repro.netlist.components",
    "repro.isa.spec",
)


class _FlopBank:
    """Deferred flip-flop allocation: Q nets now, instances later."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._pending: list[tuple[int, bool, str]] = []
        self._drivers: dict[int, int] = {}

    def q_bus(self, name: str, width: int, reset: bool = True) -> list[int]:
        """Allocate ``width`` state nets (Q outputs)."""
        nets = []
        for i in range(width):
            q = self.netlist.net(f"{name}[{i}]")
            self._pending.append((q, reset, name))
            nets.append(q)
        return nets

    def q(self, name: str, reset: bool = True) -> int:
        return self.q_bus(name, 1, reset)[0]

    def drive(self, q_nets, d_nets) -> None:
        """Record the D driver(s) for previously allocated Q net(s)."""
        if isinstance(q_nets, int):
            q_nets, d_nets = [q_nets], [d_nets]
        for q, d in zip(q_nets, d_nets):
            self._drivers[q] = d

    def finalize(self) -> None:
        """Instantiate every flop with its recorded driver."""
        reset_net = self.netlist.reset_input()
        for q, reset, name in self._pending:
            d = self._drivers.get(q)
            if d is None:
                raise AssertionError(f"state net {name} was never driven")
            if reset:
                self.netlist.add_instance("DFFNRX1", (d, reset_net), q)
            else:
                self.netlist.add_instance("DFFX1", (d,), q)


@dataclass
class _Fields:
    """Decoded instruction fields (nets), shared by all stages."""

    opcode: list[int]
    w: int
    c: int
    a: int
    b: int
    op1: list[int]
    op2: list[int]


def _split_fields(config: CoreConfig, word: list[int]) -> _Fields:
    o2 = config.operand2_bits
    o1 = config.operand1_bits
    return _Fields(
        opcode=word[o1 + o2 + 4 : o1 + o2 + 8],
        b=word[o1 + o2 + 0],
        a=word[o1 + o2 + 1],
        c=word[o1 + o2 + 2],
        w=word[o1 + o2 + 3],
        op1=word[o2 : o2 + o1],
        op2=word[0:o2],
    )


def _resolve_address(
    n: Netlist,
    config: CoreConfig,
    operand: list[int],
    offset_bits: int,
    bar_q: list[list[int]],
) -> Bus:
    """Effective address: ``BAR[select] + offset`` (mod 2^address_bits).

    On program-specific cores the address bus may be narrower than the
    operand offset field; high offset bits are truncated -- the RAM is
    sized so the program never addresses beyond them.
    """
    offset = zero_extend(
        operand[: min(offset_bits, config.address_bits)], config.address_bits
    )
    if config.num_bars == 1:
        return Bus("ea", offset)
    select = operand[offset_bits : offset_bits + config.bar_select_bits]
    bars = [zero_extend(q, config.address_bits) for q in bar_q]
    base = mux_tree(n, select, bars)
    total, _carry = ripple_adder(n, base.nets, offset)
    return total


def _build_alu(
    n: Netlist,
    config: CoreConfig,
    fields: _Fields,
    a_bus: list[int],
    b_bus: list[int],
    flag_q: dict[Flag, int],
) -> tuple[Bus, dict[Flag, int], int]:
    """The execute logic.

    Returns ``(result, flag_next, is_alu)`` where ``flag_next`` maps
    each implemented flag to its next-value net.
    """
    w = config.datawidth
    carry_flag = flag_q.get(Flag.C, CONST0)

    add_result, carry_out, overflow = add_subtract(
        n, a_bus, b_bus, subtract=fields.a,
        carry_in=carry_flag, use_carry_in=fields.c,
    )
    and_result = [n.and_(x, y) for x, y in zip(a_bus, b_bus)]
    or_result = [n.or_(x, y) for x, y in zip(a_bus, b_bus)]
    xor_result = [n.xor_(x, y) for x, y in zip(a_bus, b_bus)]
    not_result = [n.not_(y) for y in b_bus]

    # Rotate left: LSB takes the wrapped MSB (RL) or the carry (RLC).
    rl_lsb = n.mux(fields.c, b_bus[w - 1], carry_flag)
    rl_result = [rl_lsb] + list(b_bus[: w - 1])
    # Rotate right: MSB takes the wrapped LSB (RR), the carry (RRC),
    # or its own sign (RRA).
    rr_msb = n.mux(fields.a, n.mux(fields.c, b_bus[0], carry_flag), b_bus[w - 1])
    rr_result = list(b_bus[1:]) + [rr_msb]

    imm_bits = fields.op2[: min(len(fields.op2), w)]
    store_result = zero_extend(imm_bits, w)

    result = mux_tree(
        n,
        fields.opcode[0:3],
        [
            add_result.nets,
            and_result,
            or_result,
            xor_result,
            not_result,
            rl_result,
            rr_result,
            store_result,
        ],
    )

    is_add = equals_const(n, fields.opcode, 0)
    is_rl = equals_const(n, fields.opcode, 5)
    is_rr = equals_const(n, fields.opcode, 6)
    alu_onehot = decoder(n, fields.opcode, count=7)
    is_alu = n.or_many(alu_onehot.nets)

    flag_next: dict[Flag, int] = {}
    if Flag.S in flag_q:
        flag_next[Flag.S] = result[w - 1]
    if Flag.Z in flag_q:
        flag_next[Flag.Z] = is_zero(n, result.nets)
    if Flag.C in flag_q:
        flag_next[Flag.C] = n.or_(
            n.and_(is_add, carry_out),
            n.or_(n.and_(is_rl, b_bus[w - 1]), n.and_(is_rr, b_bus[0])),
        )
    if Flag.V in flag_q:
        flag_next[Flag.V] = n.and_(is_add, overflow)
    return result, flag_next, is_alu


def _branch_unit(
    n: Netlist,
    config: CoreConfig,
    fields: _Fields,
    flag_q: dict[Flag, int],
) -> tuple[int, list[int]]:
    """Branch resolution: returns ``(taken, target_bits)``."""
    masked = [
        n.and_(fields.op2[position], flag_q[flag])
        for position, flag in enumerate(config.flags)
        if position < len(fields.op2)
    ]
    any_set = n.or_many(masked)
    taken_if = n.mux(fields.a, any_set, n.not_(any_set))
    taken = n.and_(fields.b, taken_if)
    target = zero_extend(fields.op1[: config.pc_bits], max(1, config.pc_bits))
    return taken, target


def _bus_equal(n: Netlist, a: list[int], b: list[int]) -> int:
    """Equality comparator over two equal-width buses."""
    return n.and_many([n.xnor(x, y) for x, y in zip(a, b)])


def generate_core(config: CoreConfig, cse: bool = True) -> Netlist:
    """Generate the gate-level netlist for ``config``.

    The returned netlist is frozen (validated, ordered and levelized
    once) and ready for STA, power, area analysis, Verilog dump, or
    cycle simulation.  ``cse=False``
    disables common-subexpression elimination (ablation of the
    builder's stand-in for logic optimization).

    Results are memoized per ``(config, cse)``: elaboration is pure,
    the returned netlist is treated as immutable by every analysis,
    and sharing it lets the simulators reuse one compiled code object
    across co-simulation harnesses and fault campaigns.
    """
    if not _OBS.enabled:
        return _generate_core(config, cse)
    # Memo telemetry: lru_cache hides hits, so detect them by whether
    # the call bumped the miss count (elaboration itself gets a span
    # inside the cached function, covering misses only).
    misses_before = _generate_core.cache_info().misses
    netlist = _generate_core(config, cse)
    if _generate_core.cache_info().misses == misses_before:
        _MEMO_HITS.inc()
    else:
        _MEMO_MISSES.inc()
    return netlist


@lru_cache(maxsize=128)
def _generate_core(config: CoreConfig, cse: bool) -> Netlist:
    # On-disk tier under the in-memory memo: a warm cache means a
    # fresh process (or pool worker) unpickles the elaborated netlist
    # instead of re-running elaboration.  The key digests the config
    # and every module whose source shapes the netlist, so code edits
    # invalidate automatically.
    # Unpickling runs the netlist's load check; an entry that fails it,
    # or holds no netlist, is dropped like an unreadable one.
    key = f"{config!r};cse={cse};" + source_digest(*_ELABORATION_SOURCES)
    netlist = load_artifact(_ARTIFACT_KIND, key, Netlist)
    if netlist is not None:
        _DISK_HITS.inc()
        return netlist
    with _obs_span("elaborate", design=config.name, cse=cse):
        netlist = _elaborate(config, cse)
    store_artifact(_ARTIFACT_KIND, key, netlist)
    return netlist


def _elaborate(config: CoreConfig, cse: bool) -> Netlist:
    n = Netlist(config.name, cse=cse)
    n.reset_input()
    flops = _FlopBank(n)
    w = config.datawidth
    pc_bits = max(1, config.pc_bits)
    stages = config.pipeline_stages

    instr_in = n.input_bus("instr", config.instruction_bits)
    rdata_a_in = n.input_bus("rdata_a", w)
    rdata_b_in = n.input_bus("rdata_b", w)

    # -- architectural state (Q nets first; D wiring at the end) -----------
    pc_q = flops.q_bus("pc", pc_bits)
    n.output_bus("pc", pc_q)

    bar_q: list[list[int]] = [[CONST0] * config.bar_bits]
    for index in range(1, config.num_bars):
        bar_q.append(flops.q_bus(f"bar{index}", config.bar_bits))

    flag_q = {flag: flops.q(f"flag_{flag.name}") for flag in config.flags}

    # -- IF stage ------------------------------------------------------------
    if stages == 1:
        fetched_word = list(instr_in.nets)
        fetched_valid = CONST1
    else:
        fetched_word = flops.q_bus("instr_if", config.instruction_bits, reset=False)
        fetched_valid = flops.q("valid_if")

    # -- RD: address resolution ------------------------------------------------
    rd_fields = _split_fields(config, fetched_word)
    addr_a = _resolve_address(n, config, rd_fields.op1, config.offset1_bits, bar_q)
    addr_b = _resolve_address(n, config, rd_fields.op2, config.offset2_bits, bar_q)
    n.output_bus("addr_a", addr_a.nets)
    n.output_bus("addr_b", addr_b.nets)

    # -- RD/EX boundary ----------------------------------------------------------
    if stages == 3:
        ex_word = flops.q_bus("instr_ex", config.instruction_bits, reset=False)
        ex_rdata_a = flops.q_bus("rdata_a_ex", w, reset=False)
        ex_rdata_b = flops.q_bus("rdata_b_ex", w, reset=False)
        ex_waddr = flops.q_bus("waddr_ex", config.address_bits, reset=False)
        ex_valid = flops.q("valid_ex")
        ex_fields = _split_fields(config, ex_word)
    else:
        ex_word = fetched_word
        ex_rdata_a = list(rdata_a_in.nets)
        ex_rdata_b = list(rdata_b_in.nets)
        ex_waddr = list(addr_a.nets)
        ex_valid = fetched_valid
        ex_fields = rd_fields

    # -- EX: ALU, flags, branch, writeback ----------------------------------------
    result, flag_next, is_alu = _build_alu(
        n, config, ex_fields, ex_rdata_a, ex_rdata_b, flag_q
    )
    taken_raw, target = _branch_unit(n, config, ex_fields, flag_q)
    taken = n.and_(taken_raw, ex_valid)

    flags_we = n.and_(is_alu, ex_valid)
    for flag in config.flags:
        flops.drive(flag_q[flag], n.mux(flags_we, flag_q[flag], flag_next[flag]))

    # BAR writes (SETBAR: opcode 8; new value from operand-1 read data).
    if config.num_bars > 1:
        is_bar = equals_const(n, ex_fields.opcode, 8)
        bar_value = zero_extend(
            ex_rdata_a[: min(w, config.bar_bits)], config.bar_bits
        )
        select_bits = max(1, (config.num_bars - 1).bit_length())
        for index in range(1, config.num_bars):
            matches = equals_const(n, ex_fields.op2[:select_bits], index)
            bar_we = n.and_(n.and_(is_bar, matches), ex_valid)
            flops.drive(
                bar_q[index],
                [
                    n.mux(bar_we, old, new)
                    for old, new in zip(bar_q[index], bar_value)
                ],
            )

    # Memory write port.
    we = n.and_(ex_fields.w, ex_valid)
    n.output_bus("we", [we])
    n.output_bus("waddr", ex_waddr)
    n.output_bus("wdata", result.nets)

    # -- PC update and pipeline control ----------------------------------------------
    pc_plus_1 = incrementer(n, pc_q)
    pc_next = mux_bus(n, taken, pc_plus_1.nets, target)

    if stages == 1:
        flops.drive(pc_q, pc_next.nets)
    elif stages == 2:
        # Taken branches flush the fetched slot; no stalls exist.
        flops.drive(fetched_valid, n.not_(taken))
        flops.drive(fetched_word, list(instr_in.nets))
        flops.drive(pc_q, pc_next.nets)
    else:
        # Stall when the RD-stage instruction reads an address the
        # EX-stage one is writing (memory RAW), or when EX is a SETBAR
        # whose new BAR value RD's addressing may depend on.
        eq_a = _bus_equal(n, addr_a.nets, ex_waddr)
        eq_b = _bus_equal(n, addr_b.nets, ex_waddr)
        is_bar_ex = equals_const(n, ex_fields.opcode, 8)
        hazard = n.or_(
            n.and_(we, n.or_(eq_a, eq_b)),
            n.and_(is_bar_ex, ex_valid),
        )
        stall = n.and_(hazard, fetched_valid)
        not_stall = n.not_(stall)

        # IF: hold on stall, flush on taken branch, else refill.
        flops.drive(
            fetched_word,
            [n.mux(stall, new, old) for new, old in zip(instr_in.nets, fetched_word)],
        )
        flops.drive(fetched_valid, n.mux(stall, n.not_(taken), fetched_valid))
        # RD/EX: bubble on stall or flush.
        flops.drive(ex_word, [n.and_(bit, not_stall) for bit in fetched_word])
        flops.drive(ex_rdata_a, [n.and_(bit, not_stall) for bit in rdata_a_in.nets])
        flops.drive(ex_rdata_b, [n.and_(bit, not_stall) for bit in rdata_b_in.nets])
        flops.drive(ex_waddr, [n.and_(bit, not_stall) for bit in addr_a.nets])
        flops.drive(
            ex_valid,
            n.and_(fetched_valid, n.and_(not_stall, n.not_(taken))),
        )
        # PC holds on stall.
        flops.drive(pc_q, mux_bus(n, stall, pc_next.nets, pc_q).nets)

    flops.finalize()
    n.freeze()
    return n
