"""Netlist data model and technology-mapped logic builder.

A :class:`Netlist` is a flat collection of standard-cell instances
connected by integer-identified nets.  The builder methods (``nand``,
``xor_``, ``mux`` ...) instantiate library cells directly, so a built
netlist *is* the technology-mapped design: area, timing, and power
analyses read cell names straight out of it.

Two lightweight optimizations run during construction, standing in for
the logic optimization a synthesis tool would perform:

* **constant folding** -- operations on the constant nets
  :data:`CONST0` / :data:`CONST1` reduce to wires or constants, so a
  core configured with e.g. ``BAR[0] = 0`` (paper Section 5.2) sheds
  its unreachable logic automatically;
* **common-subexpression elimination** -- structurally identical
  operations return the existing output net instead of duplicating
  cells.

Sequential cells: ``DFFX1`` (inputs ``(d,)``) and ``DFFNRX1`` (inputs
``(d, rn)`` with active-low asynchronous reset) are ordinary instances
whose outputs are treated as path sources/sinks by the analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import MappingError, NetlistError

#: Net id of the constant logic-0 net.
CONST0 = 0
#: Net id of the constant logic-1 net.
CONST1 = 1

#: Cells whose output holds state across clock edges.
SEQUENTIAL_CELLS = frozenset({"DFFX1", "DFFNRX1", "LATCHX1"})

#: Truth functions of combinational cells, keyed by cell name.
CELL_FUNCTIONS = {
    "INVX1": lambda a: a ^ 1,
    "NAND2X1": lambda a, b: (a & b) ^ 1,
    "NOR2X1": lambda a, b: (a | b) ^ 1,
    "AND2X1": lambda a, b: a & b,
    "OR2X1": lambda a, b: a | b,
    "XOR2X1": lambda a, b: a ^ b,
    "XNOR2X1": lambda a, b: (a ^ b) ^ 1,
    "TSBUFX1": lambda d, en: d & en,
}


@dataclass(frozen=True)
class Instance:
    """One placed standard cell.

    Attributes:
        cell: Library cell name (e.g. ``"NAND2X1"``).
        inputs: Driver net ids, in cell pin order.
        output: Net id driven by this instance.
    """

    cell: str
    inputs: tuple[int, ...]
    output: int


@dataclass
class Bus:
    """An ordered group of nets, least-significant bit first."""

    name: str
    nets: list[int]

    def __len__(self) -> int:
        return len(self.nets)

    def __iter__(self):
        return iter(self.nets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Bus(f"{self.name}[{index}]", self.nets[index])
        return self.nets[index]

    @property
    def width(self) -> int:
        return len(self.nets)


class Netlist:
    """A flat, technology-mapped gate-level netlist under construction.

    Args:
        name: Design name (used in reports and Verilog emission).
    """

    def __init__(self, name: str, cse: bool = True) -> None:
        self.name = name
        self.cse_enabled = cse
        self.instances: list[Instance] = []
        self.inputs: dict[str, Bus] = {}
        self.outputs: dict[str, Bus] = {}
        self._net_count = 2  # CONST0 and CONST1 pre-exist
        self._net_names: dict[int, str] = {CONST0: "const0", CONST1: "const1"}
        self._driver: dict[int, Instance] = {}
        self._cse: dict[tuple, int] = {}
        self.reset_n: int | None = None

    def __getstate__(self) -> dict:
        """Pickle support: drop the simulation attachments.

        :func:`repro.netlist.compile.compiled_netlist` caches exec'd
        function objects on the netlist; those are not picklable and
        are cheap to rebuild (they have their own on-disk artifact
        cache).  :func:`repro.netlist.nsim.numpy_netlist` caches
        gather plans that rebuild in milliseconds.  So the on-disk
        netlist artifact and process-pool transfers carry structure
        only.
        """
        state = dict(self.__dict__)
        state.pop("_compiled_sim", None)
        state.pop("_numpy_sim", None)
        return state

    # -- net management ----------------------------------------------------

    def net(self, name: str = "") -> int:
        """Allocate a fresh net and return its id."""
        net_id = self._net_count
        self._net_count += 1
        if name:
            self._net_names[net_id] = name
        return net_id

    @property
    def net_count(self) -> int:
        """Number of allocated nets (including the two constants)."""
        return self._net_count

    def net_name(self, net_id: int) -> str:
        """Best-effort human-readable name for a net."""
        return self._net_names.get(net_id, f"n{net_id}")

    def named_nets(self) -> dict[int, str]:
        """All explicitly named nets as ``{net_id: name}`` (a copy).

        The probe/attribution layer (:mod:`repro.netlist.probe`)
        derives buses, waveform scopes, and per-module energy labels
        from these names.
        """
        return dict(self._net_names)

    def driver_of(self, net_id: int) -> Instance | None:
        """The instance driving ``net_id``, or None for ports/constants."""
        return self._driver.get(net_id)

    # -- ports ---------------------------------------------------------------

    def input_bus(self, name: str, width: int) -> Bus:
        """Declare a primary input bus of ``width`` bits."""
        if name in self.inputs:
            raise NetlistError(f"duplicate input bus {name!r}")
        bus = Bus(name, [self.net(f"{name}[{i}]") for i in range(width)])
        self.inputs[name] = bus
        return bus

    def output_bus(self, name: str, nets: Sequence[int]) -> Bus:
        """Declare a primary output bus driven by ``nets``."""
        if name in self.outputs:
            raise NetlistError(f"duplicate output bus {name!r}")
        bus = Bus(name, list(nets))
        self.outputs[name] = bus
        return bus

    def reset_input(self) -> int:
        """Declare (once) and return the active-low reset input net."""
        if self.reset_n is None:
            self.reset_n = self.input_bus("rst_n", 1)[0]
        return self.reset_n

    # -- raw instantiation ---------------------------------------------------

    def add_instance(self, cell: str, inputs: Iterable[int], output: int | None = None) -> int:
        """Place one cell instance; returns the output net id."""
        if output is None:
            output = self.net()
        instance = Instance(cell, tuple(inputs), output)
        if output in self._driver:
            raise NetlistError(f"net {self.net_name(output)} has two drivers")
        self.instances.append(instance)
        self._driver[output] = instance
        return output

    def _mapped(self, cell: str, *args: int) -> int:
        """Instantiate ``cell`` with CSE; symmetric cells share keys."""
        if not self.cse_enabled:
            return self.add_instance(cell, args)
        key_args = tuple(sorted(args)) if cell != "TSBUFX1" else args
        key = (cell, key_args)
        cached = self._cse.get(key)
        if cached is not None:
            return cached
        output = self.add_instance(cell, args)
        self._cse[key] = output
        return output

    # -- mapped logic operations ----------------------------------------------

    def not_(self, a: int) -> int:
        """Logical NOT, folded on constants and double inversion."""
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        driver = self._driver.get(a)
        if driver is not None and driver.cell == "INVX1":
            return driver.inputs[0]
        return self._mapped("INVX1", a)

    def and_(self, a: int, b: int) -> int:
        """Logical AND of two nets."""
        if CONST0 in (a, b):
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        return self._mapped("AND2X1", a, b)

    def or_(self, a: int, b: int) -> int:
        """Logical OR of two nets."""
        if CONST1 in (a, b):
            return CONST1
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == b:
            return a
        return self._mapped("OR2X1", a, b)

    def nand(self, a: int, b: int) -> int:
        """Logical NAND of two nets."""
        if CONST0 in (a, b):
            return CONST1
        if a == CONST1:
            return self.not_(b)
        if b == CONST1:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        return self._mapped("NAND2X1", a, b)

    def nor(self, a: int, b: int) -> int:
        """Logical NOR of two nets."""
        if CONST1 in (a, b):
            return CONST0
        if a == CONST0:
            return self.not_(b)
        if b == CONST0:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        return self._mapped("NOR2X1", a, b)

    def xor_(self, a: int, b: int) -> int:
        """Logical XOR of two nets."""
        if a == b:
            return CONST0
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == CONST1:
            return self.not_(b)
        if b == CONST1:
            return self.not_(a)
        return self._mapped("XOR2X1", a, b)

    def xnor(self, a: int, b: int) -> int:
        """Logical XNOR of two nets."""
        return self.not_(self.xor_(a, b))

    def mux(self, select: int, when0: int, when1: int) -> int:
        """2:1 multiplexer: ``when1 if select else when0``.

        Mapped NAND-NAND (``NAND(NAND(s, w1), NAND(~s, w0))``) -- in the
        printed libraries that is both smaller and faster than the
        AND/OR form, and the select inverter is shared across a whole
        bus through CSE.  Full constant folding applies: a mux with
        equal branches or a constant select costs nothing.
        """
        if when0 == when1:
            return when0
        if select == CONST0:
            return when0
        if select == CONST1:
            return when1
        if when0 == CONST0 and when1 == CONST1:
            return select
        if when0 == CONST1 and when1 == CONST0:
            return self.not_(select)
        if when0 == CONST0:
            return self.and_(select, when1)
        if when1 == CONST0:
            return self.and_(self.not_(select), when0)
        return self.nand(
            self.nand(select, when1), self.nand(self.not_(select), when0)
        )

    def and_many(self, nets: Sequence[int]) -> int:
        """Balanced AND reduction of any number of nets.

        Wide reductions use an alternating NAND/NOR tree: inverting
        stages alternate slow-rise and slow-fall transitions, which in
        transistor-resistor logic is markedly faster (and smaller)
        than a tree of AND2 cells.
        """
        nets = [n for n in nets if n != CONST1]
        if CONST0 in nets:
            return CONST0
        if len(nets) >= 4:
            signal, inverted = self._reduce_inverting(self.nand, self.nor, nets)
            return self.not_(signal) if inverted else signal
        return self._reduce(self.and_, nets, empty=CONST1)

    def or_many(self, nets: Sequence[int]) -> int:
        """Balanced OR reduction of any number of nets (fast tree)."""
        nets = [n for n in nets if n != CONST0]
        if CONST1 in nets:
            return CONST1
        if len(nets) >= 4:
            signal, inverted = self._reduce_inverting(self.nor, self.nand, nets)
            return self.not_(signal) if inverted else signal
        return self._reduce(self.or_, nets, empty=CONST0)

    def _reduce_inverting(self, first_op, second_op, nets: Sequence[int]) -> tuple[int, bool]:
        """Alternating two-op reduction; returns (net, is_inverted).

        ``first_op`` combines true-polarity levels, ``second_op``
        inverted ones (e.g. NOR then NAND computes an OR reduction).
        Odd leftovers are inverted to join the next level.
        """
        level = list(nets)
        inverted = False
        while len(level) > 1:
            op = second_op if inverted else first_op
            next_level = [
                op(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                next_level.append(self.not_(level[-1]))
            level = next_level
            inverted = not inverted
        return level[0], inverted

    def xor_many(self, nets: Sequence[int]) -> int:
        """Balanced XOR reduction of any number of nets."""
        return self._reduce(self.xor_, nets, empty=CONST0)

    def _reduce(self, op, nets: Sequence[int], empty: int) -> int:
        nets = list(nets)
        if not nets:
            return empty
        while len(nets) > 1:
            nets = [
                op(nets[i], nets[i + 1]) if i + 1 < len(nets) else nets[i]
                for i in range(0, len(nets), 2)
            ]
        return nets[0]

    # -- sequential elements ----------------------------------------------------

    def dff(self, d: int, name: str = "") -> int:
        """Plain D flip-flop (no reset); returns the Q net."""
        q = self.net(name or "q")
        self.add_instance("DFFX1", (d,), q)
        return q

    def dff_r(self, d: int, name: str = "") -> int:
        """D flip-flop with asynchronous active-low reset to 0."""
        rn = self.reset_input()
        q = self.net(name or "q")
        self.add_instance("DFFNRX1", (d, rn), q)
        return q

    def register(self, d_bits: Sequence[int], name: str = "", reset: bool = True) -> Bus:
        """A bank of flip-flops over ``d_bits``; returns the Q bus."""
        flop = self.dff_r if reset else self.dff
        return Bus(name, [flop(d, f"{name}[{i}]") for i, d in enumerate(d_bits)])

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants.

        Raises:
            NetlistError: On unknown cells, bad arity, or floating
                instance inputs (nets that are neither driven, ports,
                nor constants).
        """
        from repro.netlist.stats import CELL_ARITY

        port_nets = {n for bus in self.inputs.values() for n in bus}
        driven = set(self._driver) | port_nets | {CONST0, CONST1}
        for instance in self.instances:
            arity = CELL_ARITY.get(instance.cell)
            if arity is None:
                raise NetlistError(f"unknown cell {instance.cell!r}")
            if len(instance.inputs) != arity:
                raise NetlistError(
                    f"{instance.cell} expects {arity} inputs, got {len(instance.inputs)}"
                )
            for net_id in instance.inputs:
                if net_id not in driven:
                    raise NetlistError(
                        f"floating input net {self.net_name(net_id)} on {instance.cell}"
                    )
        for bus in self.outputs.values():
            for net_id in bus:
                if net_id not in driven:
                    raise NetlistError(
                        f"output {bus.name} bit is floating ({self.net_name(net_id)})"
                    )


def constant_bus(netlist: Netlist, value: int, width: int, name: str = "const") -> Bus:
    """A bus of constant nets encoding ``value`` over ``width`` bits."""
    if value < 0 or value >= (1 << width):
        raise MappingError(f"constant {value} does not fit in {width} bits")
    return Bus(name, [CONST1 if (value >> i) & 1 else CONST0 for i in range(width)])
