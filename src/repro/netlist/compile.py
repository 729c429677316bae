"""Compiled gate-level simulation: netlist-to-Python code generation.

The interpreted :class:`repro.netlist.sim.CycleSimulator` walks the
levelized netlist one instance at a time, paying a dict lookup and a
Python function call per gate per settle -- one full settle and one
address-cone settle per co-simulated clock cycle
(:class:`~repro.netlist.lanes.ClockSchedule`; lanes run both in
full).  This module removes that overhead Verilator-style: the netlist
is translated *once* into straight-line Python source (one bitwise
expression statement per gate, operating on local variables) which is
``compile()``d and ``exec``'d into ordinary functions.  Evaluating a
settle is then a single call into a code object with no per-gate
interpreter dispatch, which is an order of magnitude faster.

Three functions are generated per netlist, all run by
:class:`BitParallelSimulator` -- at one lane for fast scalar runs
(``CoSimHarness(backend="compiled")``), at many for fault campaigns
and lane-packed verification:

``settle(V, M)``
    Plain combinational settle over the value table ``V`` (a flat list
    indexed by net id).  ``M`` is the *lane mask*,
    ``(1 << lanes) - 1``; cell inversions are emitted as ``x ^ M`` so
    one code object serves every lane count.

``settle_forced(V, M, A, O)``
    Settle with per-net force masks: every value is passed through
    ``(value & A[net]) | O[net]``.  With ``A[net] = M`` and
    ``O[net] = 0`` this is the identity; zeroing a lane bit of
    ``A[net]`` and setting it in ``O[net]`` forces that lane of that
    net -- the classic bit-parallel stuck-at fault injection.  One
    compiled function therefore serves *every* fault site (no
    per-fault recompilation).

``tick_lanes(V, M)``
    Bit-parallel clock edge.  Asynchronous reset is applied per lane
    (a lane whose ``rst_n`` bit is low captures 0).  Toggle counts are
    not maintained -- they and probes live in the interpreted
    simulator, the reference.

The generated code caches on the netlist object itself
(:func:`compiled_netlist`), so repeated simulator constructions --
e.g. one one-lane simulator per fault site -- compile exactly once.
"""

from __future__ import annotations

import importlib.util
import marshal
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import SimulationError, UnsupportedInLaneMode
from repro.exec.cache import load_artifact, source_digest, store_artifact, structural_hash
from repro.netlist.core import CONST1, Instance, Netlist
from repro.netlist.lanes import LanePlan
from repro.netlist.nsim import topological_order
from repro.obs.metrics import counter as _obs_counter
from repro.obs.runtime import STATE as _OBS
from repro.obs.trace import span as _obs_span

# Per-netlist code-object cache telemetry (see docs/OBSERVABILITY.md).
_CACHE_HITS = _obs_counter("compile.cache_hits")
_CACHE_MISSES = _obs_counter("compile.cache_misses")
_DISK_HITS = _obs_counter("compile.disk_hits")
_LANE_TICKS = _obs_counter("sim.batched_ticks")
_LANE_CYCLES = _obs_counter("sim.lane_cycles_simulated")

#: Artifact-cache bucket for compiled simulation code.
_ARTIFACT_KIND = "compiled-sim"

#: Expression template per combinational cell; ``M`` is the lane mask
#: standing in for logical 1, so inverting cells work for any lane count.
_CELL_EXPR = {
    "INVX1": "v{a} ^ M",
    "NAND2X1": "(v{a} & v{b}) ^ M",
    "NOR2X1": "(v{a} | v{b}) ^ M",
    "AND2X1": "v{a} & v{b}",
    "OR2X1": "v{a} | v{b}",
    "XOR2X1": "v{a} ^ v{b}",
    "XNOR2X1": "(v{a} ^ v{b}) ^ M",
    "TSBUFX1": "v{a} & v{b}",
}


@dataclass
class CompiledNetlist:
    """Code objects generated for one netlist (see module docstring).

    Attributes:
        settle: Plain straight-line settle ``(V, M)``.
        settle_forced: Settle with force masks ``(V, M, A, O)``.
        tick_lanes: Bit-parallel clock edge ``(V, M)``.
        source: The generated Python source (kept for debugging).
        code: The compiled module code object (marshaled into the
            on-disk artifact cache).
    """

    settle: Callable[[list, int], None]
    settle_forced: Callable[[list, int, list, list], None]
    tick_lanes: Callable[[list, int], None]
    source: str = field(repr=False, default="")
    code: object = field(repr=False, default=None)


def _expression(instance: Instance) -> str:
    template = _CELL_EXPR.get(instance.cell)
    if template is None:
        raise SimulationError(f"cannot compile cell {instance.cell!r}")
    a = instance.inputs[0]
    b = instance.inputs[1] if len(instance.inputs) > 1 else ""
    return template.format(a=a, b=b)


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Translate ``netlist`` into compiled straight-line simulation code.

    The netlist must be simulatable (it is frozen, hence validated, on
    first use; no latches); net ids index the flat value table
    directly, so the caller's value list must have
    ``netlist.net_count`` entries.
    """
    netlist.cells.refuse_latches()
    source = _generate_source(netlist)
    code = compile(source, f"<compiled:{netlist.name}>", "exec")
    return _bind(code, source)


def _generate_source(netlist: Netlist) -> str:
    """Emit the three straight-line functions as Python source."""
    order = topological_order(netlist)
    flop_index = np.flatnonzero(netlist.cells.sequential).tolist()
    flops = [netlist.instances[k] for k in flop_index]
    comb_outputs = {inst.output for inst in order}
    sources = sorted(
        {net for inst in order for net in inst.inputs} - comb_outputs
    )

    lines: list[str] = []

    # -- settle(V, M) ------------------------------------------------------
    lines.append("def settle(V, M):")
    for net in sources:
        lines.append(f"    v{net} = V[{net}]")
    for inst in order:
        lines.append(f"    v{inst.output} = {_expression(inst)}")
    for inst in order:
        lines.append(f"    V[{inst.output}] = v{inst.output}")
    lines.append("    return")

    # -- settle_forced(V, M, A, O) ----------------------------------------
    # Sources are forced at load (covering faults on flop outputs and
    # primary inputs) and written back so direct reads observe the
    # forced value, exactly like the interpreted FaultySimulator.
    lines.append("def settle_forced(V, M, A, O):")
    for net in sources:
        lines.append(f"    v{net} = (V[{net}] & A[{net}]) | O[{net}]")
    for net in sources:
        lines.append(f"    V[{net}] = v{net}")
    for inst in order:
        out = inst.output
        lines.append(f"    v{out} = (({_expression(inst)}) & A[{out}]) | O[{out}]")
    for inst in order:
        lines.append(f"    V[{inst.output}] = v{inst.output}")
    lines.append("    return")

    # -- tick_lanes(V, M) --------------------------------------------------
    # Per-lane asynchronous reset: a DFFNRX1 lane captures its D bit
    # ANDed with the (active-low) reset lane bit.
    reset_net = netlist.reset_n
    lines.append("def tick_lanes(V, M):")
    for j, flop in enumerate(flops):
        if flop.cell == "DFFNRX1" and reset_net is not None:
            lines.append(f"    d{j} = V[{flop.inputs[0]}] & V[{reset_net}]")
        else:
            lines.append(f"    d{j} = V[{flop.inputs[0]}]")
    for j, flop in enumerate(flops):
        lines.append(f"    V[{flop.output}] = d{j}")
    lines.append("    return")

    return "\n".join(lines)


def _bind(code, source: str) -> CompiledNetlist:
    """Exec a generated module code object into a :class:`CompiledNetlist`."""
    namespace: dict = {}
    exec(code, namespace)
    return CompiledNetlist(
        settle=namespace["settle"],
        settle_forced=namespace["settle_forced"],
        tick_lanes=namespace["tick_lanes"],
        source=source,
        code=code,
    )


def _artifact_key(netlist: Netlist) -> str:
    """Disk-cache key: structure + the compiler/orderer source digest."""
    return structural_hash(netlist) + source_digest(
        "repro.netlist.compile", "repro.netlist.nsim", "repro.netlist.core"
    )


def _from_artifact(netlist: Netlist, key: str) -> CompiledNetlist | None:
    """Rebuild compiled code from a cached artifact, or None on miss.

    The artifact carries the generated source plus the marshaled
    module code object tagged with the bytecode magic that produced
    it: a same-interpreter hit skips parsing entirely (``marshal``
    load), a cross-version hit recompiles the cached source -- both
    skip codegen.
    """
    payload = load_artifact(_ARTIFACT_KIND, key)
    if not isinstance(payload, dict) or "source" not in payload:
        return None
    try:
        if payload.get("magic") == importlib.util.MAGIC_NUMBER:
            code = marshal.loads(payload["code"])
        else:
            code = compile(
                payload["source"], f"<compiled:{netlist.name}>", "exec"
            )
        return _bind(code, payload["source"])
    except (ValueError, TypeError, SyntaxError, KeyError, EOFError):
        return None  # treat any decode failure as a plain miss


def compiled_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compiled code for ``netlist``, generated once and cached on it.

    Three cache tiers, cheapest first: the attribute on the netlist
    object (one process, one netlist), then the on-disk artifact cache
    (:mod:`repro.exec.cache` -- fresh processes and parallel workers
    skip codegen for structures any prior run compiled), then real
    compilation, whose result is published back to disk.
    """
    cached = getattr(netlist, "_compiled_sim", None)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached
    _CACHE_MISSES.inc()
    key = _artifact_key(netlist)
    cached = _from_artifact(netlist, key)
    if cached is not None:
        _DISK_HITS.inc()
    else:
        with _obs_span("compile", design=netlist.name):
            cached = compile_netlist(netlist)
        store_artifact(
            _ARTIFACT_KIND,
            key,
            {
                "magic": importlib.util.MAGIC_NUMBER,
                "code": marshal.dumps(cached.code),
                "source": cached.source,
            },
        )
    netlist._compiled_sim = cached
    return cached


class BitParallelSimulator:
    """Bit-parallel gate-level simulation: N stimulus sets per pass.

    Each net's value is a Python bigint whose bit ``l`` is the net's
    logic value in *lane* ``l``; one compiled settle therefore
    evaluates ``lanes`` independent simulations at once.  Lanes may
    carry different primary-input stimulus and (optionally) different
    stuck-at faults, which is how fault campaigns batch dozens of
    faulty machines into one run.

    Toggle counts are not maintained (see module docstring); use the
    interpreted :class:`~repro.netlist.sim.CycleSimulator` when
    measured-activity power is needed.

    Args:
        netlist: A validated, technology-mapped netlist.
        lanes: Number of parallel simulations (bigint width).
        faults: Optional per-lane stuck-at faults -- a sequence of
            ``lanes`` entries, each a
            :class:`~repro.netlist.faults.StuckAtFault` or ``None``
            for a healthy lane.  Ignored when ``plan`` is given.
        plan: Full :class:`~repro.netlist.lanes.LanePlan` (lanes +
            faults + memories); the same plan drives the numpy
            bit-slice backend, keeping the two bit-exact by
            construction.
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
        self.mask = (1 << plan.lanes) - 1
        self._compiled = compiled_netlist(netlist)
        self._values = [0] * netlist.net_count
        self._values[CONST1] = self.mask
        self.cycles = 0

        self._fault_nets: list[int] = []
        self._force_and: list[int] | None = None
        self._force_or: list[int] | None = None
        forced = plan.forced_bits(netlist)
        if forced:
            force_and = [self.mask] * netlist.net_count
            force_or = [0] * netlist.net_count
            for net, sites in forced.items():
                for lane, stuck_value in sites:
                    force_and[net] &= ~(1 << lane)
                    force_or[net] |= stuck_value << lane
                self._fault_nets.append(net)
            self._force_and = force_and
            self._force_or = force_or

    # -- I/O -------------------------------------------------------------

    def set_input(self, name: str, values) -> None:
        """Drive input ``name``: one int broadcast, or one per lane."""
        bus = self.netlist.inputs.get(name)
        if bus is None:
            raise SimulationError(f"no input bus named {name!r}")
        if isinstance(values, int):
            values = [values] * self.lanes
        if len(values) != self.lanes:
            raise SimulationError(
                f"{len(values)} values for {self.lanes} lanes on {name!r}"
            )
        limit = 1 << len(bus)
        for value in values:
            if value < 0 or value >= limit:
                raise SimulationError(
                    f"value {value} does not fit input {name!r} ({len(bus)} bits)"
                )
        for i, net in enumerate(bus):
            word = 0
            for lane, value in enumerate(values):
                word |= ((value >> i) & 1) << lane
            self._values[net] = word

    def read_output(self, name: str) -> list[int]:
        """Read output bus ``name``: one integer per lane."""
        bus = self.netlist.outputs.get(name)
        if bus is None:
            raise SimulationError(f"no output bus named {name!r}")
        return self.read_nets(bus.nets)

    def read_nets(self, nets: Sequence[int]) -> list[int]:
        """Read an arbitrary LSB-first net collection, one int per lane."""
        out = [0] * self.lanes
        for i, net in enumerate(nets):
            word = self._values[net]
            if word:
                for lane in range(self.lanes):
                    out[lane] |= ((word >> lane) & 1) << i
        return out

    # -- phases ------------------------------------------------------------

    def settle(self) -> None:
        """Propagate all lanes through the combinational logic."""
        if self._force_and is not None:
            self._compiled.settle_forced(
                self._values, self.mask, self._force_and, self._force_or
            )
        else:
            self._compiled.settle(self._values, self.mask)

    def settle_cone(self, cone) -> None:
        """The clock schedule's address settle: lanes have no cone
        plans, so this settles in full."""
        self.settle()

    def tick(self) -> None:
        """Advance one clock edge in every lane (per-lane async reset)."""
        self._compiled.tick_lanes(self._values, self.mask)
        if self._force_and is not None:
            values = self._values
            for net in self._fault_nets:
                values[net] = (values[net] & self._force_and[net]) | self._force_or[net]
        self.cycles += 1
        if _OBS.enabled:
            _LANE_TICKS.value += 1
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
        raise UnsupportedInLaneMode("toggle_counts", "BitParallelSimulator")
