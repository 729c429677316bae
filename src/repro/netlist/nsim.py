"""Numpy bit-slice simulation: per-level gather kernels, thousands of lanes.

The bigint :class:`~repro.netlist.compile.BitParallelSimulator` packs
dozens of independent runs into Python integers -- one Python-level
bitwise op per gate advances every lane, but the op itself still runs
through the interpreter's bigint machinery and cost grows with lane
count.  This module keeps net values in a dense ``uint64`` matrix of
shape ``(nets, words)``, so each net's value is a row carrying
``64 * words`` lanes, and advances a whole *logic level* of gates with
a handful of vectorized calls.

Each lane is an **independent run** -- a distinct stuck-at fault set,
initial data memory, or stimulus stream (see
:class:`~repro.netlist.lanes.LanePlan`), not a bit of one run.  A
fault campaign that needed ~60 bigint batches therefore collapses into
one kernel stream over a few dozen words.

:func:`compile_numpy_netlist` builds index data only, no code:

* rows are assigned in **levelized topological order** -- source nets
  (constants, primary inputs, flop outputs) first, then each logic
  level's gate outputs contiguously (level = 1 + deepest input level,
  so no gate reads a row of its own level);
* inside a level, rows are ordered by ufunc group -- AND/TSBUF,
  NAND/INV (INV as ``NAND(a, a)``), NOR, OR, XOR, XNOR -- so each of
  the three ufuncs and each of the two inverted runs covers one
  contiguous row block;
* each level keeps one gather index (every gate's first input row,
  then every second input row) and the seven group offsets.

A settle pass is then, per level, one ``take`` of the input rows into
a preallocated scratch, at most three ``out=`` ufuncs into the level's
row views and at most two in-place inverts -- a few dozen numpy calls
per pass instead of one per gate, with no allocation.  Per-lane
stuck-at forcing clamps each level's row block right after it is
written (unforced rows carry identity masks, levels without forced
nets skip masking), so downstream levels always read clamped values.
Garbage in lanes beyond ``plan.lanes`` (inverts work on full words) is
harmless because every read masks to the active lanes.

The clock edge takes every flop D row into a scratch matrix first,
ANDs the reset flops' rows with ``rst_n`` (per-lane asynchronous
reset), then stores all Q rows -- the simultaneous-capture semantics of
the scalar backends.

The plans derive from the netlist's frozen cell arrays
(:class:`~repro.netlist.core.CellArrays`: the stored order and levels)
with a few vectorized passes, so they are memoized on the netlist but
neither pickled nor cached on disk.

Like the bigint lane mode, no per-instance toggle counters are kept:
:meth:`NumpySimulator.toggle_counts` raises
:class:`~repro.errors.UnsupportedInLaneMode` instead of returning
stale zeros.  Bit-exactness against the interpreter and the bigint
lanes is asserted across the whole Figure 7 sweep by
``tests/test_sim_compiled.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SimulationError, UnsupportedInLaneMode
from repro.netlist.core import CELL_NAMES, CONST0, CONST1, Instance, Netlist
from repro.netlist.lanes import LanePlan
from repro.obs.metrics import counter as _obs_counter
from repro.obs.runtime import STATE as _OBS
from repro.obs.trace import span as _obs_span

_CACHE_HITS = _obs_counter("nsim.cache_hits")
_CACHE_MISSES = _obs_counter("nsim.cache_misses")
_TICKS = _obs_counter("sim.numpy_ticks")
_LANE_CYCLES = _obs_counter("sim.numpy_lane_cycles")

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

#: Row group of each combinational cell inside its level.  INV joins
#: NAND as ``NAND(a, a)``; TSBUF gates data with enable, an AND.  The
#: groups are also STA's polarity classes (:mod:`repro.netlist.sta`):
#: 1-2 invert, 4-5 are non-monotone, 0 and 3 keep the edge.
_GROUP = {
    "AND2X1": 0, "TSBUFX1": 0, "NAND2X1": 1, "INVX1": 1,
    "NOR2X1": 2, "OR2X1": 3, "XOR2X1": 4, "XNOR2X1": 5,
}
#: Ufunc group per cell kind code; 7 (past every group) for the
#: sequential cells, which get no logic row.
_GROUP_OF_CODE = np.array([_GROUP.get(name, 7) for name in CELL_NAMES], dtype=np.int64)
_GROUP_BOUNDS = np.arange(7)

#: ``(ufunc, first group, end group)``: the three ufunc row runs.
_UFUNC_RUNS = (
    (np.bitwise_and, 0, 2), (np.bitwise_or, 2, 4), (np.bitwise_xor, 4, 6),
)
#: ``(first group, end group)``: the inverted runs (NAND/INV + NOR, XNOR).
_INVERT_RUNS = ((1, 3), (5, 6))


@dataclass
class NumpyLayout:
    """Levelized row layout of one netlist's value matrix.

    Attributes:
        row_of: Row index in the value matrix of every net id.
        rows: Total row count (== ``netlist.net_count``).
        source_rows: Rows ``[0, source_rows)`` hold source nets
            (constants, primary inputs, flop outputs); unused nets are
            parked at the end of the matrix.
        level_slices: Contiguous ``(lo, hi)`` row range per logic
            level, in dependency order.
    """

    row_of: np.ndarray
    rows: int
    source_rows: int
    level_slices: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LevelPlan:
    """Gather plan of one logic level, output rows ``lo .. lo + n``.

    Attributes:
        lo: First output row of the level.
        gather: ``2n`` input rows: every gate's first input, then every
            gate's second input (an INV repeats its only input).
        cuts: Seven row offsets into the level; ufunc group ``g`` (see
            :data:`_GROUP`) occupies ``cuts[g] .. cuts[g + 1]``.
    """

    lo: int
    gather: np.ndarray
    cuts: tuple[int, ...]


@dataclass
class NumpyCompiled:
    """Per-level gather plans for one netlist (index data, no code).

    Attributes:
        layout: Row layout of the value matrix (see
            :class:`NumpyLayout`).
        levels: One :class:`LevelPlan` per logic level, in dependency
            order.
        flop_d: D-input row per sequential cell, reset flops first.
        flop_q: Q-output row per sequential cell, same order.
        reset_flops: Leading flops that AND their D with ``rst_n``.
        reset_row: Row of ``rst_n`` (``None`` without reset flops).
    """

    layout: NumpyLayout
    levels: tuple[LevelPlan, ...]
    flop_d: np.ndarray
    flop_q: np.ndarray
    reset_flops: int
    reset_row: int | None


def topological_order(netlist: Netlist) -> list[Instance]:
    """The combinational instances in the netlist's stored order.

    Sequential outputs, ports, and constants are sources.  The order is
    the one FIFO Kahn pass :meth:`~repro.netlist.core.Netlist.freeze`
    runs (a combinational loop raises :class:`TimingError` there), and
    every netlist walk uses it: the levelized row layout below (and
    through it STA), the interpreter, the compiled lane kernel, probes,
    the variation oracle and the placer.
    """
    instances = netlist.instances
    return [instances[cell] for cell in netlist.cells.order.tolist()]


def compile_numpy_netlist(netlist: Netlist) -> NumpyCompiled:
    """Build the per-level gather plans and flop rows for ``netlist``.

    Rows: sources (constants, primary inputs, flop outputs) in net
    order, then each level's cells by ufunc group, each group in the
    stored topological order, then the unused nets in net order.
    """
    cells = netlist.cells
    cells.refuse_latches()
    nets = netlist.net_count
    source = np.zeros(nets, dtype=bool)
    source[[CONST0, CONST1]] = True
    for bus in netlist.inputs.values():
        source[bus.nets] = True
    source[cells.output[cells.sequential]] = True
    level = cells.level[cells.order]
    group = _GROUP_OF_CODE[cells.kind[cells.order]]
    rank = np.argsort(level * 8 + group, kind="stable")
    logic, groups = cells.order[rank], group[rank]
    used = source.copy()
    used[cells.output[logic]] = True
    row_net = np.concatenate(
        (np.flatnonzero(source), cells.output[logic], np.flatnonzero(~used))
    )
    row_of = np.empty(nets, dtype=np.intp)
    row_of[row_net] = np.arange(nets)
    source_rows = int(source.sum())
    ends = source_rows + np.cumsum(np.bincount(level, minlength=level.max(initial=-1) + 1))
    bounds = [source_rows, *ends.tolist()]

    inputs = cells.inputs[logic]
    # The second input, or an INV's only input.
    last = np.where(inputs[:, 1] >= 0, inputs[:, 1], inputs[:, 0])
    first_rows, last_rows = row_of[inputs[:, 0]], row_of[last]
    plans = []
    for lo, hi in zip(bounds, bounds[1:]):
        a, b = lo - source_rows, hi - source_rows
        plans.append(
            LevelPlan(
                lo=lo,
                gather=np.concatenate((first_rows[a:b], last_rows[a:b])),
                cuts=tuple(np.searchsorted(groups[a:b], _GROUP_BOUNDS).tolist()),
            )
        )
    flops = np.flatnonzero(cells.sequential)
    reset_flops = 0
    if netlist.reset_n is not None:
        resettable = cells.kind[flops] == CELL_NAMES.index("DFFNRX1")
        flops = flops[np.argsort(~resettable, kind="stable")]
        reset_flops = int(resettable.sum())
    layout = NumpyLayout(
        row_of=row_of,
        rows=nets,
        source_rows=source_rows,
        level_slices=tuple(zip(bounds, bounds[1:])),
    )
    return NumpyCompiled(
        layout=layout,
        levels=tuple(plans),
        flop_d=row_of[cells.inputs[flops, 0]],
        flop_q=row_of[cells.output[flops]],
        reset_flops=reset_flops,
        reset_row=int(row_of[netlist.reset_n]) if reset_flops else None,
    )


def numpy_netlist(netlist: Netlist) -> NumpyCompiled:
    """Gather plans for ``netlist``, memoized on the netlist object.

    The memo is dropped when the netlist is pickled
    (``Netlist.__getstate__``); rebuilding costs milliseconds.
    """
    cached = getattr(netlist, "_numpy_sim", None)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached
    _CACHE_MISSES.inc()
    with _obs_span("compile_numpy", design=netlist.name):
        cached = compile_numpy_netlist(netlist)
    netlist._numpy_sim = cached
    return cached


class NumpySimulator:
    """Vectorized bit-slice simulation: 64 lanes per word, per ufunc call.

    Net values live in one dense ``uint64`` matrix of shape
    ``(nets, words)``, rows in levelized topological order; bit
    ``l % 64`` of word ``l // 64`` in a net's row is that net's logic
    value in lane ``l``.  Each logic level advances every lane with one
    gather, at most three ufuncs and at most two inverts over
    contiguous row views built once per simulator; per-lane stuck-at
    forcing clamps each level's row block with two in-place ufunc ops
    (levels without forced nets skip masking); bus pack/unpack runs as
    whole-bus matrix ops -- so a campaign batch of thousands of runs
    costs one kernel stream with no per-gate, per-net or per-lane
    Python loops.

    The lane semantics -- per-lane stuck-at forcing, per-lane
    asynchronous reset, broadcast-or-per-lane stimulus -- are identical
    to :class:`~repro.netlist.compile.BitParallelSimulator`; both
    backends build their force state from the same
    :class:`~repro.netlist.lanes.LanePlan`, and the equivalence suite
    asserts lane-for-lane bit-exactness against the scalar backends.

    Args:
        netlist: A validated, technology-mapped netlist.
        lanes: Number of parallel runs (ignored when ``plan`` given).
        faults: Optional per-lane stuck-at faults (``lanes`` entries,
            ``None`` = healthy lane).  Ignored when ``plan`` is given.
        plan: Full :class:`LanePlan` (lanes + faults + memories).
    """

    def __init__(
        self,
        netlist: Netlist,
        lanes: int | None = None,
        faults: Sequence | None = None,
        plan: LanePlan | None = None,
    ) -> None:
        if plan is None:
            if faults is not None:
                plan = LanePlan.for_faults(faults)
                if lanes is not None and lanes != plan.lanes:
                    raise SimulationError(
                        f"{len(plan.faults)} faults for {lanes} lanes"
                    )
            else:
                plan = LanePlan(lanes if lanes is not None else 1)
        self.netlist = netlist
        self.plan = plan
        self.lanes = plan.lanes
        self.words = (plan.lanes + 63) // 64
        self._compiled = compiled = numpy_netlist(netlist)
        layout = compiled.layout
        self._layout = layout
        self._V = V = np.zeros((layout.rows, self.words), dtype=np.uint64)
        V[layout.row_of[CONST1]] = _ALL_ONES
        self._take = V.take  # the method: np.take's wrapper costs more
        self._D = np.zeros((len(compiled.flop_d), self.words), dtype=np.uint64)
        self._reset = None
        if compiled.reset_flops:
            self._reset = (
                self._D[: compiled.reset_flops], V[compiled.reset_row]
            )
        self.cycles = 0

        # Lane geometry for pack/unpack (word index + bit shift per
        # lane, the 64 in-word bit positions, and per-bus scratch).
        lane_index = np.arange(self.lanes)
        self._lane_word = lane_index // 64
        self._lane_bit = (lane_index % 64).astype(np.uint64)
        self._bit_positions = np.arange(64, dtype=np.uint64)
        self._pack_cache: dict[str, tuple] = {}
        self._gather_cache: dict[tuple, tuple] = {}
        self._input_rows = {
            name: layout.row_of[bus.nets].tolist()
            for name, bus in netlist.inputs.items()
        }

        # Force masks from the shared plan, as identity-padded
        # contiguous blocks: sources clamp before level 0, each level's
        # block clamps right after its kernel, and the full matrix is
        # re-clamped after every tick (mirroring the bigint backend's
        # stuck-across-the-edge semantics).
        self._pre_force: tuple | None = None
        level_forces: list = [None] * len(compiled.levels)
        self._all_force: tuple | None = None
        forced = plan.forced_bits(netlist)
        if forced:
            all_and = np.full(
                (layout.rows, self.words), _ALL_ONES, dtype=np.uint64
            )
            all_or = np.zeros((layout.rows, self.words), dtype=np.uint64)
            for net, sites in forced.items():
                row = layout.row_of[net]
                for lane, value in sites:
                    word, bit = lane // 64, np.uint64(lane % 64)
                    all_and[row, word] &= ~(_ONE << bit)
                    if value:
                        all_or[row, word] |= _ONE << bit
            self._all_force = (all_and, all_or)
            forced_rows = {layout.row_of[net] for net in forced}

            def block_force(lo: int, hi: int) -> tuple | None:
                if not any(lo <= row < hi for row in forced_rows):
                    return None
                return (V[lo:hi], all_and[lo:hi], all_or[lo:hi])

            self._pre_force = block_force(0, layout.source_rows)
            level_forces = [block_force(lo, hi) for lo, hi in layout.level_slices]

        # One settle step per level, over views built once: the gather
        # lands in the scratch's leading 2n rows (first inputs, then
        # second inputs) and the ufuncs write the level's row block.
        widest = max((len(p.gather) for p in compiled.levels), default=0)
        scratch = np.empty((widest, self.words), dtype=np.uint64)
        steps = []
        for level, force in zip(compiled.levels, level_forces):
            n = len(level.gather) // 2
            first, second = scratch[:n], scratch[n : 2 * n]
            out = V[level.lo : level.lo + n]
            cuts = level.cuts
            ops = []
            for ufunc, g, end in _UFUNC_RUNS:
                if cuts[g] < cuts[end]:
                    rows = slice(cuts[g], cuts[end])
                    ops.append((ufunc, first[rows], second[rows], out[rows]))
            inverts = tuple(
                out[cuts[g] : cuts[end]]
                for g, end in _INVERT_RUNS
                if cuts[g] < cuts[end]
            )
            steps.append(
                (level.gather, scratch[: 2 * n], tuple(ops), inverts, force)
            )
        self._steps = tuple(steps)

    # -- I/O -------------------------------------------------------------

    def set_input(self, name: str, values) -> None:
        """Drive input ``name``: one int broadcast, or one per lane.

        Accepts a plain int (broadcast), any length-``lanes`` sequence,
        or a numpy integer array of shape ``(lanes,)``.
        """
        bus = self.netlist.inputs.get(name)
        if bus is None:
            raise SimulationError(f"no input bus named {name!r}")
        limit = 1 << len(bus)
        row_of = self._layout.row_of
        V = self._V
        if isinstance(values, int):
            if values < 0 or values >= limit:
                raise SimulationError(
                    f"value {values} does not fit input {name!r} "
                    f"({len(bus)} bits)"
                )
            for i, row in enumerate(self._input_rows[name]):
                V[row] = _ALL_ONES if (values >> i) & 1 else 0
            return
        lanes = np.asarray(values)
        if lanes.shape != (self.lanes,):
            raise SimulationError(
                f"{lanes.size} values for {self.lanes} lanes on {name!r}"
            )
        if int(lanes.min()) < 0 or int(lanes.max()) >= limit:
            bad = int(lanes[(lanes < 0) | (lanes >= limit)][0])
            raise SimulationError(
                f"value {bad} does not fit input {name!r} ({len(bus)} bits)"
            )
        cached = self._pack_cache.get(name)
        if cached is None:
            cached = self._pack_cache[name] = (
                row_of[bus.nets],
                np.arange(len(bus), dtype=np.uint64)[:, None],
                np.zeros((len(bus), self.words * 64), dtype=np.uint64),
            )
        rows, shifts, padded = cached
        padded[:, : self.lanes] = (
            lanes.astype(np.uint64)[None, :] >> shifts
        ) & _ONE
        V[rows] = np.bitwise_or.reduce(
            padded.reshape(len(bus), self.words, 64) << self._bit_positions,
            axis=2,
        )

    def read_output(self, name: str) -> list[int]:
        """Read output bus ``name``: one integer per lane."""
        return [int(v) for v in self.read_output_array(name).tolist()]

    def read_output_array(self, name: str) -> np.ndarray:
        """Read output bus ``name`` as a ``(lanes,)`` uint64 array."""
        bus = self.netlist.outputs.get(name)
        if bus is None:
            raise SimulationError(f"no output bus named {name!r}")
        return self._gather(tuple(bus.nets))

    def read_nets(self, nets: Sequence[int]) -> list[int]:
        """Read an arbitrary LSB-first net collection, one int per lane."""
        nets = tuple(nets)
        if len(nets) <= 64:
            return [int(v) for v in self._gather(nets).tolist()]
        # Wider collections overflow uint64 shifts: gather in 64-net
        # chunks and recombine as python bigints (parity with the
        # bigint backend, which has no width limit).
        out = [0] * self.lanes
        for start in range(0, len(nets), 64):
            chunk = self._gather(nets[start : start + 64]).tolist()
            for lane, value in enumerate(chunk):
                out[lane] |= int(value) << start
        return out

    def _gather(self, nets: tuple) -> np.ndarray:
        if not nets:
            return np.zeros(self.lanes, dtype=np.uint64)
        cached = self._gather_cache.get(nets)
        if cached is None:
            row_of = self._layout.row_of
            cached = self._gather_cache[nets] = (
                row_of[list(nets)],
                np.arange(len(nets), dtype=np.uint64)[:, None],
            )
        rows, shifts = cached
        bits = (self._V[rows][:, self._lane_word] >> self._lane_bit) & _ONE
        return np.bitwise_or.reduce(bits << shifts, axis=0)

    # -- phases ------------------------------------------------------------

    def settle(self) -> None:
        """Propagate all lanes through the combinational logic."""
        take = self._take
        invert = np.invert
        if self._pre_force is not None:
            block, and_mask, or_mask = self._pre_force
            np.bitwise_and(block, and_mask, out=block)
            np.bitwise_or(block, or_mask, out=block)
        for gather, scratch, ops, inverts, force in self._steps:
            # Plan indices are in range by construction, so "clip"
            # never clips; the default "raise" would buffer ``out``.
            take(gather, 0, scratch, "clip")
            for ufunc, first, second, out in ops:
                ufunc(first, second, out=out)
            for block in inverts:
                invert(block, out=block)
            if force is not None:
                block, and_mask, or_mask = force
                np.bitwise_and(block, and_mask, out=block)
                np.bitwise_or(block, or_mask, out=block)

    def settle_cone(self, cone) -> None:
        """The clock schedule's address settle: lanes have no cone
        plans, so this settles in full."""
        self.settle()

    def tick(self) -> None:
        """Advance one clock edge in every lane (per-lane async reset)."""
        # Capture every D before writing any Q, so flop-to-flop paths
        # see pre-edge values -- identical to the scalar backends' tick.
        D = self._D
        self._take(self._compiled.flop_d, 0, D, "clip")
        if self._reset is not None:
            block, reset = self._reset
            np.bitwise_and(block, reset, out=block)
        V = self._V
        V[self._compiled.flop_q] = D
        # A stuck net stays stuck across the edge (covers faults on
        # flop outputs), mirroring BitParallelSimulator.tick.
        if self._all_force is not None:
            np.bitwise_and(V, self._all_force[0], out=V)
            np.bitwise_or(V, self._all_force[1], out=V)
        self.cycles += 1
        if _OBS.enabled:
            _TICKS.value += 1
            _LANE_CYCLES.value += self.lanes

    def reset(self) -> None:
        """Apply one asynchronous reset pulse to all lanes."""
        if self.netlist.reset_n is None:
            raise SimulationError("netlist has no reset input")
        self.set_input("rst_n", 0)
        self.settle()
        self.tick()
        self.set_input("rst_n", 1)
        self.settle()

    # -- instrumentation ---------------------------------------------------

    def toggle_counts(self):
        """Lane runs keep no toggle state -- raise instead of lying."""
        raise UnsupportedInLaneMode("toggle_counts", "NumpySimulator")
