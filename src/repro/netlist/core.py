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

A finished netlist is **frozen** (:meth:`Netlist.freeze`): its cells
become :class:`CellArrays` -- kind codes, an input matrix, an output
vector, the one topological order and every cell's logic level -- and
the builder methods refuse further changes.  Elaboration freezes its
netlist; the first analysis freezes a hand-built one.  The analyses
read the arrays, and only the arrays travel through pickle.
"""

from __future__ import annotations

from collections import abc, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import MappingError, NetlistError, SimulationError, TimingError

#: Net id of the constant logic-0 net.
CONST0 = 0
#: Net id of the constant logic-1 net.
CONST1 = 1

#: Cells whose output holds state across clock edges.
SEQUENTIAL_CELLS = frozenset({"DFFX1", "DFFNRX1", "LATCHX1"})

#: Input-pin count of every supported cell.
CELL_ARITY = {
    "INVX1": 1,
    "NAND2X1": 2,
    "NOR2X1": 2,
    "AND2X1": 2,
    "OR2X1": 2,
    "XOR2X1": 2,
    "XNOR2X1": 2,
    "LATCHX1": 2,
    "DFFX1": 1,
    "DFFNRX1": 2,
    "TSBUFX1": 2,
}

#: Cell name of each kind code a frozen netlist stores.
CELL_NAMES = tuple(CELL_ARITY)
_CODE = {name: code for code, name in enumerate(CELL_NAMES)}
_ARITY = np.array([CELL_ARITY[name] for name in CELL_NAMES], dtype=np.int64)
_STATEFUL = np.array([name in SEQUENTIAL_CELLS for name in CELL_NAMES])

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


@dataclass(frozen=True, eq=False)
class CellArrays:
    """The cells of a frozen netlist (see :meth:`Netlist.freeze`).

    Attributes:
        kind: Each cell's kind, an index into :data:`CELL_NAMES`
            (uint8, instance order).
        inputs: ``(cells, 2)`` input nets in pin order; a one-input
            cell's second pin is -1 (int32).
        output: Each cell's output net (int32).
        order: The combinational cells in the one FIFO Kahn order
            (int32): every cell after the cells driving its inputs.
        level: Each cell's logic level, one above its deepest input,
            where sources (constants, ports, sequential outputs) sit
            at -1; sequential cells hold -1 (int32).
        driver: The cell driving each net, -1 for constants, ports and
            unused nets (int32; rebuilt on load, not pickled).
        sequential: Whether each cell holds state (rebuilt on load).
    """

    kind: np.ndarray
    inputs: np.ndarray
    output: np.ndarray
    order: np.ndarray
    level: np.ndarray
    driver: np.ndarray
    sequential: np.ndarray

    def refuse_latches(self) -> None:
        """Raise :class:`SimulationError` if any cell is a latch."""
        if (self.kind == _CODE["LATCHX1"]).any():
            raise SimulationError("level-sensitive latches are not simulatable")


class InstanceView(abc.Sequence):
    """A frozen netlist's cells as :class:`Instance` objects, read-only.

    ``len()`` reads the arrays.  The first index or iteration builds
    one ``Instance`` per cell, once per netlist, for the modules that
    walk instances (simulators, lint, placer, probes, Verilog).
    """

    __slots__ = ("_netlist",)

    def __init__(self, netlist: "Netlist") -> None:
        self._netlist = netlist

    def __len__(self) -> int:
        return len(self._netlist._cells.kind)

    def __getitem__(self, index):
        return self._netlist._materialized()[index]

    def __iter__(self):
        return iter(self._netlist._materialized())


class Netlist:
    """A flat, technology-mapped gate-level netlist.

    Built with the methods below, then frozen (:meth:`freeze`) into
    :class:`CellArrays`; a frozen netlist refuses further changes.

    Args:
        name: Design name (used in reports and Verilog emission).
    """

    def __init__(self, name: str, cse: bool = True) -> None:
        self.name = name
        self.cse_enabled = cse
        self.inputs: dict[str, Bus] = {}
        self.outputs: dict[str, Bus] = {}
        self._net_count = 2  # CONST0 and CONST1 pre-exist
        self._net_names: dict[int, str] = {CONST0: "const0", CONST1: "const1"}
        self.reset_n: int | None = None
        # Builder state, dropped at freeze: the instance list, the
        # index of each net's driving instance, and the CSE table.
        self._built: list[Instance] | None = []
        self._drives: dict[int, int] | None = {}
        self._cse: dict[tuple, int] | None = {}
        self._cells: CellArrays | None = None
        self._instances: tuple[Instance, ...] | None = None

    def __getstate__(self) -> dict:
        """Pickle support: the frozen form only.

        Pickling freezes the netlist.  The state holds the ports, the
        net names and the five cell arrays of :class:`CellArrays`
        (kind, inputs, output, order, level) -- no ``Instance`` objects
        and none of the plans the analyses memoize on the netlist
        (compiled code, numpy and STA plans, cell-kind index, fleet
        timing kernels, clock schedule, the interpreter's step plan,
        the flag/BAR net index): those derive from the arrays and
        names in milliseconds.  So the on-disk ``netlist`` artifact and
        process-pool transfers carry the arrays, and
        :meth:`__setstate__` checks them before use.
        """
        cells = self.freeze()
        return {
            "name": self.name,
            "cse": self.cse_enabled,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "reset_n": self.reset_n,
            "nets": self._net_count,
            "names": self._net_names,
            "cells": (cells.kind, cells.inputs, cells.output, cells.order, cells.level),
        }

    def __setstate__(self, state: dict) -> None:
        """Unpickle the frozen form, running the load check.

        Raises:
            NetlistError: If the arrays fail :meth:`validate`'s checks
                or a combinational cell does not sit exactly one level
                above its deepest input (or the order disagrees with
                the levels).
        """
        self.name = state["name"]
        self.cse_enabled = state["cse"]
        self.inputs = state["inputs"]
        self.outputs = state["outputs"]
        self.reset_n = state["reset_n"]
        self._net_count = state["nets"]
        self._net_names = state["names"]
        self._built = self._drives = self._cse = None
        self._instances = None
        self._cells = None
        kind, inputs, output, order, level = state["cells"]
        self._check_cells(kind, inputs, output)
        cells = self._cell_arrays(kind, inputs, output, order, level)
        self._check_levels(cells)
        self._cells = cells

    # -- freezing ------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has run (or the netlist was loaded)."""
        return self._cells is not None

    @property
    def cells(self) -> CellArrays:
        """The :class:`CellArrays`, freezing the netlist on first use."""
        if self._cells is None:
            return self.freeze()
        return self._cells

    @property
    def instances(self) -> Sequence[Instance]:
        """The cells as :class:`Instance` objects, in instance order.

        The mutable builder list until the netlist is frozen, then a
        read-only :class:`InstanceView`.
        """
        if self._cells is None:
            return self._built
        return InstanceView(self)

    def freeze(self) -> CellArrays:
        """Turn the instance list into :class:`CellArrays`; idempotent.

        Validates the netlist (:meth:`validate`), orders its
        combinational cells (one FIFO Kahn pass) and levels them, then
        drops the builder state.  Every builder method raises
        :class:`NetlistError` afterwards.

        Raises:
            NetlistError: On an invalid netlist (see :meth:`validate`).
            TimingError: On a combinational loop.
        """
        if self._cells is not None:
            return self._cells
        kind, inputs, output = self._arrays()
        self._check_cells(kind, inputs, output)
        order, level = self._kahn(inputs, output, _STATEFUL[kind])
        self._cells = self._cell_arrays(kind, inputs, output, order, level)
        self._instances = tuple(self._built)
        self._built = self._drives = self._cse = None
        return self._cells

    def _materialized(self) -> tuple[Instance, ...]:
        """One ``Instance`` per cell of a frozen netlist, built once."""
        if self._instances is None:
            cells = self._cells
            self._instances = tuple(
                Instance(CELL_NAMES[code], (a,) if b < 0 else (a, b), out)
                for code, (a, b), out in zip(
                    cells.kind.tolist(), cells.inputs.tolist(), cells.output.tolist()
                )
            )
        return self._instances

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kind codes, input matrix and outputs of the builder list."""
        codes, pins = [], []
        for instance in self._built:
            code = _CODE.get(instance.cell)
            if code is None:
                raise NetlistError(f"unknown cell {instance.cell!r}")
            if len(instance.inputs) == 2:
                pins.append(instance.inputs)
            elif len(instance.inputs) == 1:
                pins.append((instance.inputs[0], -1))
            else:
                raise NetlistError(
                    f"{instance.cell} expects {CELL_ARITY[instance.cell]} inputs, "
                    f"got {len(instance.inputs)}"
                )
            codes.append(code)
        return (
            np.array(codes, dtype=np.uint8),
            np.array(pins, dtype=np.int32).reshape(-1, 2),
            np.array([instance.output for instance in self._built], dtype=np.int32),
        )

    def _cell_arrays(self, kind, inputs, output, order, level) -> CellArrays:
        driver = np.full(self._net_count, -1, dtype=np.int32)
        driver[output] = np.arange(len(output), dtype=np.int32)
        return CellArrays(
            kind=kind,
            inputs=inputs,
            output=output,
            order=np.asarray(order, dtype=np.int32),
            level=np.asarray(level, dtype=np.int32),
            driver=driver,
            sequential=_STATEFUL[kind],
        )

    def _kahn(
        self, inputs: np.ndarray, output: np.ndarray, sequential: np.ndarray
    ) -> tuple[list[int], list[int]]:
        """The FIFO Kahn order of the combinational cells, and each
        cell's level.

        Sources (constants, ports, sequential outputs) are ready from
        the start; a cell becomes ready when its last input is ordered,
        and ties keep instance order.
        """
        source = bytearray(self._net_count)
        source[CONST0] = source[CONST1] = 1
        for bus in self.inputs.values():
            for net in bus.nets:
                source[net] = 1
        pins = inputs.tolist()
        outs = output.tolist()
        combinational = []
        for cell, stateful in enumerate(sequential.tolist()):
            if stateful:
                source[outs[cell]] = 1
            else:
                combinational.append(cell)
        # Per net, its readers, once per input pin; per cell, its
        # inputs not yet ordered.
        consumers: list[list[int] | None] = [None] * self._net_count
        pending = [0] * len(outs)
        for cell in combinational:
            for net in pins[cell]:
                if net >= 0 and not source[net]:
                    readers = consumers[net]
                    if readers is None:
                        consumers[net] = [cell]
                    else:
                        readers.append(cell)
                    pending[cell] += 1
        level_of = [-1] * (self._net_count + 1)  # [-1]: a missing pin
        level = [-1] * len(outs)
        ready = deque(cell for cell in combinational if not pending[cell])
        order: list[int] = []
        while ready:
            cell = ready.popleft()
            order.append(cell)
            a, b = pins[cell]
            out = outs[cell]
            level[cell] = level_of[out] = max(level_of[a], level_of[b]) + 1
            for reader in consumers[out] or ():
                pending[reader] -= 1
                if not pending[reader]:
                    ready.append(reader)
        if len(order) != len(combinational):
            raise TimingError(
                f"combinational loop: {len(combinational) - len(order)} cells unordered"
            )
        return order, level

    def _check_cells(self, kind, inputs, output) -> None:
        """The structural check of :meth:`validate`, on cell arrays."""
        nets = self._net_count
        count = len(kind)
        if (
            (kind.dtype, inputs.dtype, output.dtype) != (np.uint8, np.int32, np.int32)
            or inputs.shape != (count, 2) or output.shape != (count,)
        ):
            raise NetlistError(f"netlist {self.name!r}: malformed cell arrays")
        if count and (
            kind.max() >= len(CELL_NAMES)
            or inputs.min() < -1 or inputs.max() >= nets
            or output.min() < 0 or output.max() >= nets
        ):
            raise NetlistError(f"netlist {self.name!r}: cell or net out of range")
        two_pins = inputs[:, 1] >= 0
        bad = (two_pins != (_ARITY[kind] == 2)) | (inputs[:, 0] < 0)
        if bad.any():
            k = int(bad.argmax())
            cell = CELL_NAMES[kind[k]]
            raise NetlistError(
                f"{cell} expects {CELL_ARITY[cell]} inputs, "
                f"got {int((inputs[k] >= 0).sum())}"
            )
        # Drivers per net: cells, plus one for each constant and input
        # port.  The extra last entry stands for a missing pin (-1).
        drivers = np.bincount(output, minlength=nets + 1)
        drivers[[CONST0, CONST1]] += 1
        for bus in self.inputs.values():
            drivers[bus.nets] += 1
        if (drivers > 1).any():
            net = int((drivers > 1).argmax())
            raise NetlistError(f"net {self.net_name(net)} has two drivers")
        drivers[-1] = 1
        driven = drivers.astype(bool)
        floating = ~driven[inputs]
        if floating.any():
            k, pin = divmod(int(floating.argmax()), 2)
            raise NetlistError(
                f"floating input net {self.net_name(int(inputs[k, pin]))} "
                f"on {CELL_NAMES[kind[k]]}"
            )
        for bus in self.outputs.values():
            if not driven[bus.nets].all():
                net_id = next(net for net in bus if not driven[net])
                raise NetlistError(
                    f"output {bus.name} bit is floating ({self.net_name(net_id)})"
                )

    def _check_levels(self, cells: CellArrays) -> None:
        """Every combinational cell sits one level above its deepest
        input, and the order lists each of them once, by non-decreasing
        level."""
        level, order = cells.level, cells.order
        net_level = np.full(self._net_count + 1, -1, dtype=np.int32)  # [-1]: no pin
        net_level[cells.output] = level
        expected = np.maximum(net_level[cells.inputs[:, 0]], net_level[cells.inputs[:, 1]])
        expected += 1
        expected[cells.sequential] = -1
        listed = np.zeros(len(level), dtype=bool)
        if order.size and 0 <= order.min() and order.max() < len(level):
            listed[order] = True
        if not (
            np.array_equal(level, expected)
            and len(order) == np.count_nonzero(listed)
            and np.array_equal(listed, ~cells.sequential)
            and (np.diff(level[order]) >= 0).all()
        ):
            raise NetlistError(
                f"netlist {self.name!r}: cell levels or order disagree with the inputs"
            )

    def _check_mutable(self) -> None:
        if self._cells is not None:
            raise NetlistError(f"netlist {self.name!r} is frozen and cannot change")

    # -- net management ----------------------------------------------------

    def net(self, name: str = "") -> int:
        """Allocate a fresh net and return its id."""
        self._check_mutable()
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
        if self._cells is None:
            index = self._drives.get(net_id)
            return None if index is None else self._built[index]
        index = int(self._cells.driver[net_id])
        return None if index < 0 else self._materialized()[index]

    # -- ports ---------------------------------------------------------------

    def input_bus(self, name: str, width: int) -> Bus:
        """Declare a primary input bus of ``width`` bits."""
        self._check_mutable()
        if name in self.inputs:
            raise NetlistError(f"duplicate input bus {name!r}")
        bus = Bus(name, [self.net(f"{name}[{i}]") for i in range(width)])
        self.inputs[name] = bus
        return bus

    def output_bus(self, name: str, nets: Sequence[int]) -> Bus:
        """Declare a primary output bus driven by ``nets``."""
        self._check_mutable()
        if name in self.outputs:
            raise NetlistError(f"duplicate output bus {name!r}")
        bus = Bus(name, list(nets))
        self.outputs[name] = bus
        return bus

    def reset_input(self) -> int:
        """Declare (once) and return the active-low reset input net."""
        self._check_mutable()
        if self.reset_n is None:
            self.reset_n = self.input_bus("rst_n", 1)[0]
        return self.reset_n

    # -- raw instantiation ---------------------------------------------------

    def add_instance(self, cell: str, inputs: Iterable[int], output: int | None = None) -> int:
        """Place one cell instance; returns the output net id."""
        self._check_mutable()
        if output is None:
            output = self.net()
        instance = Instance(cell, tuple(inputs), output)
        if output in self._drives:
            raise NetlistError(f"net {self.net_name(output)} has two drivers")
        self._drives[output] = len(self._built)
        self._built.append(instance)
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
        self._check_mutable()
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        index = self._drives.get(a)
        if index is not None and self._built[index].cell == "INVX1":
            return self._built[index].inputs[0]
        return self._mapped("INVX1", a)

    def and_(self, a: int, b: int) -> int:
        """Logical AND of two nets."""
        self._check_mutable()
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
        self._check_mutable()
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
        self._check_mutable()
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
        self._check_mutable()
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
        self._check_mutable()
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
        self._check_mutable()
        return self.not_(self.xor_(a, b))

    def mux(self, select: int, when0: int, when1: int) -> int:
        """2:1 multiplexer: ``when1 if select else when0``.

        Mapped NAND-NAND (``NAND(NAND(s, w1), NAND(~s, w0))``) -- in the
        printed libraries that is both smaller and faster than the
        AND/OR form, and the select inverter is shared across a whole
        bus through CSE.  Full constant folding applies: a mux with
        equal branches or a constant select costs nothing.
        """
        self._check_mutable()
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
        self._check_mutable()
        nets = [n for n in nets if n != CONST1]
        if CONST0 in nets:
            return CONST0
        if len(nets) >= 4:
            signal, inverted = self._reduce_inverting(self.nand, self.nor, nets)
            return self.not_(signal) if inverted else signal
        return self._reduce(self.and_, nets, empty=CONST1)

    def or_many(self, nets: Sequence[int]) -> int:
        """Balanced OR reduction of any number of nets (fast tree)."""
        self._check_mutable()
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
        self._check_mutable()
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
        self._check_mutable()
        q = self.net(name or "q")
        self.add_instance("DFFX1", (d,), q)
        return q

    def dff_r(self, d: int, name: str = "") -> int:
        """D flip-flop with asynchronous active-low reset to 0."""
        self._check_mutable()
        rn = self.reset_input()
        q = self.net(name or "q")
        self.add_instance("DFFNRX1", (d, rn), q)
        return q

    def register(self, d_bits: Sequence[int], name: str = "", reset: bool = True) -> Bus:
        """A bank of flip-flops over ``d_bits``; returns the Q bus."""
        self._check_mutable()
        flop = self.dff_r if reset else self.dff
        return Bus(name, [flop(d, f"{name}[{i}]") for i, d in enumerate(d_bits)])

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants.

        A frozen netlist passed this check when it was frozen or
        loaded, so only a netlist under construction is checked.

        Raises:
            NetlistError: On unknown cells, bad arity, a net with two
                drivers (two cells, or a cell and a port or constant),
                or floating instance inputs or output bits (nets that
                are neither driven, ports, nor constants).
        """
        if self._cells is None:
            self._check_cells(*self._arrays())


def constant_bus(netlist: Netlist, value: int, width: int, name: str = "const") -> Bus:
    """A bus of constant nets encoding ``value`` over ``width`` bits."""
    if value < 0 or value >= (1 << width):
        raise MappingError(f"constant {value} does not fit in {width} bits")
    return Bus(name, [CONST1 if (value >> i) & 1 else CONST0 for i in range(width)])
