"""Cross-run lane packing: one netlist, many independent runs.

Both lane-parallel simulation backends -- the bigint
:class:`~repro.netlist.compile.BitParallelSimulator` and the numpy
bit-slice :class:`~repro.netlist.nsim.NumpySimulator` -- advance K
*independent runs* of one netlist per pass.  The runs may differ only
in three ways: forced nets (per-lane stuck-at faults), initial data
memory, and per-cycle stimulus.  :class:`LanePlan` describes the
first: the simulators consume its forced-net map.  Initial memories
and stimulus stay with the harness (:class:`LaneMemoryHarness` takes
the images; stimulus is a per-cycle stream, driven through
``set_input`` with one value per lane).

Keeping the plan backend-agnostic is what lets the verify
differential executor run bigint lanes and numpy bit-slice words
without touching batching logic -- and what keeps the two backends
bit-exact by construction: they build their force masks from the
*same* ``forced_bits`` map.

:class:`LaneMemoryHarness` is the matching *architectural* half: the
behavioural instruction-ROM / data-RAM model every lane-packed core
run needs (fetch with halt-branch padding past the program end, dual
read ports, write-enable writeback).  The fault campaign and the
differential verifier used to each maintain their own copy of this
loop; they now both drive this one harness, which picks the vectorized
array path automatically when the simulator exposes
``read_output_array`` (numpy bit-slice) and the per-lane list path
otherwise (bigint).

:class:`ClockSchedule` is the one clock cycle every core run on
behavioural memories takes -- the scalar
:class:`~repro.coregen.cosim.CoSimHarness` and this lane harness
alike:

1. read ``pc`` without settling (it comes straight from flops);
2. provide ``instr``;
3. settle only the address cone (the fan-in of ``addr_a``/``addr_b``);
4. provide ``rdata_a``/``rdata_b``;
5. do one full settle;
6. capture the write port and tick.

The final settle sees the same instruction word, read data and flop
state as any longer schedule, and toggles are counted at the tick
against the last settled value, so every simulated value and toggle
count is that of settling to a fixed point.  The cones are derived
once per netlist by :func:`clock_schedule`, which also refuses a
netlist where an output the clock reads depends combinationally on an
input the clock provides after reading it.  Only the interpreted
simulator restricts the address settle to the cone (84 cells of the
344-1611 combinational ones on the 2-BAR sweep cores, 180 with 4
BARs); the bigint and numpy lanes settle in full for that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SimulationError
from repro.netlist.core import Netlist


@dataclass(frozen=True)
class LanePlan:
    """K independent runs that share one netlist.

    Attributes:
        lanes: Number of packed runs (bigint width / bit-slice lanes).
        faults: Optional per-lane stuck-at faults -- a ``lanes``-tuple
            where each entry is ``None`` (healthy lane), one
            :class:`~repro.netlist.faults.StuckAtFault`, or a tuple of
            them (a multi-defect printed unit).  ``None`` (or
            all-``None``) means no forcing at all.  If one lane lists
            two faults on the same net with conflicting values, the
            backends' force order (and-mask then or-mask) makes
            stuck-at-1 win; the Monte-Carlo defect sampler never emits
            duplicate sites, so this only matters for hand-built plans.
    """

    lanes: int
    faults: tuple | None = None

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise SimulationError(f"need at least one lane, got {self.lanes}")
        if self.faults is not None and len(self.faults) != self.lanes:
            raise SimulationError(
                f"{len(self.faults)} faults for {self.lanes} lanes"
            )

    @classmethod
    def for_faults(cls, faults: Sequence) -> "LanePlan":
        """One lane per entry of ``faults`` (``None`` = healthy lane).

        Entries may be single faults or per-lane fault tuples.
        """
        faults = tuple(faults)
        return cls(lanes=len(faults), faults=faults)

    @staticmethod
    def _lane_faults(entry) -> tuple:
        """Normalize one lane's entry to a (possibly empty) fault tuple."""
        if entry is None:
            return ()
        if isinstance(entry, tuple):
            return entry
        return (entry,)

    @property
    def has_forces(self) -> bool:
        """Whether any lane forces any net."""
        return self.faults is not None and any(
            self._lane_faults(entry) for entry in self.faults
        )

    def forced_bits(self, netlist) -> dict[int, list[tuple[int, int]]]:
        """Forced-net map: ``net -> [(lane, stuck_value), ...]``.

        Nets appear in order of first lane appearance (both backends
        derive their fault-net ordering from this), and fault sites are
        validated against ``netlist``.  Empty when the plan has no
        forces.
        """
        forced: dict[int, list[tuple[int, int]]] = {}
        if not self.has_forces:
            return forced
        outputs = netlist.cells.output
        for lane, entry in enumerate(self.faults):
            for fault in self._lane_faults(entry):
                if not 0 <= fault.instance_index < len(outputs):
                    raise SimulationError(f"no instance {fault.instance_index}")
                net = int(outputs[fault.instance_index])
                forced.setdefault(net, []).append((lane, fault.stuck_value))
        return forced


@dataclass(frozen=True)
class ClockSchedule:
    """One clock cycle of a core on behavioural memories.

    Attributes:
        address_cone: The combinational fan-in of ``addr_a`` and
            ``addr_b`` -- what step 3 settles -- as positions in the
            netlist's stored topological order (``cells.order``),
            ascending.  The interpreter's steps follow that order, so
            a position is a step.
    """

    address_cone: tuple[int, ...]

    def clock(self, sim, read, fetch, load) -> tuple:
        """Advance ``sim`` one clock cycle (see the module docstring).

        ``read(name)`` reads an output bus; ``fetch(pc)`` returns the
        instruction word and ``load(address)`` the data word at a read
        port -- ints on a scalar simulator, one value per lane on a
        lane simulator.  Returns the write port ``(we, waddr, wdata)``
        captured before the edge, for the caller to write back.
        """
        sim.set_input("instr", fetch(read("pc")))
        sim.settle_cone(self.address_cone)
        sim.set_input("rdata_a", load(read("addr_a")))
        sim.set_input("rdata_b", load(read("addr_b")))
        sim.settle()
        port = (read("we"), read("waddr"), read("wdata"))
        sim.tick()
        return port


def clock_schedule(netlist: Netlist) -> ClockSchedule:
    """The :class:`ClockSchedule` of ``netlist``, memoized on it.

    Raises:
        SimulationError: If an output the clock reads is missing, if
            one depends combinationally on an input the clock provides
            after reading it (the message names both), or if ``pc``
            passes through combinational cells (the clock reads it
            unsettled, right after the edge).
    """
    cached = getattr(netlist, "_clock_schedule", None)
    if cached is not None:
        return cached
    cells = netlist.cells
    fanin = (
        cells.driver.tolist(), cells.sequential.tolist(), cells.inputs.tolist()
    )
    input_of = {net: name for name, bus in netlist.inputs.items() for net in bus}
    rdata = ("rdata_a", "rdata_b")
    if _cone(netlist, fanin, "pc", ("instr", *rdata), input_of):
        raise SimulationError(
            "output 'pc' must come straight from flops: the clock reads "
            "it unsettled, right after the edge"
        )
    address = _cone(netlist, fanin, "addr_a", rdata, input_of)
    address |= _cone(netlist, fanin, "addr_b", rdata, input_of)
    outputs = cells.output.tolist()
    cached = netlist._clock_schedule = ClockSchedule(
        tuple(
            position
            for position, cell in enumerate(cells.order.tolist())
            if outputs[cell] in address
        )
    )
    return cached


def _cone(
    netlist: Netlist,
    fanin: tuple[list, list, list],
    output: str,
    later: tuple[str, ...],
    input_of: dict,
) -> set[int]:
    """Output nets of the combinational cells in ``output``'s fan-in.

    ``fanin`` holds the netlist's cell arrays as lists: the driving
    cell of each net, whether each cell holds state, and each cell's
    input pins.  The walk stops at flops, constants and primary inputs,
    and raises if it reaches an input in ``later`` -- one the clock
    provides after reading ``output``.
    """
    driver, sequential, pins = fanin
    bus = netlist.outputs.get(output)
    if bus is None:
        raise SimulationError(f"no output bus named {output!r}")
    cone: set[int] = set()
    stack = list(bus.nets)
    while stack:
        net = stack.pop()
        if input_of.get(net) in later:
            raise SimulationError(
                f"output {output!r} depends combinationally on input "
                f"{input_of[net]!r}, which the clock provides after "
                f"reading {output!r}"
            )
        cell = driver[net]
        if cell < 0 or sequential[cell] or net in cone:
            continue
        cone.add(net)
        stack.extend(pin for pin in pins[cell] if pin >= 0)
    return cone


class LaneMemoryHarness:
    """Behavioural ROM/RAM model around a lane-packed core simulator.

    Drives the memory side of the :class:`ClockSchedule` -- fetch,
    address settle, read data, full settle, write port, tick, write
    back -- for every lane at once.  :meth:`repro.coregen.cosim.
    CoSimHarness.step` runs the same schedule for one machine; this
    harness serves the fault campaign and the differential verifier.

    Two execution paths, chosen automatically:

    * **array path** when the simulator exposes ``read_output_array``
      (the numpy bit-slice backend): instruction fetch is a
      precomputed-table gather, data memory is one ``(lanes, words)``
      ``uint64`` array read with fancy indexing and written back under
      the ``we`` mask -- O(kernel calls), not O(lanes), per cycle.
    * **list path** otherwise (bigint bit-parallel): per-lane Python
      loops over the simulator's list-valued ports.

    Both paths are bit-exact with each other and with the scalar
    harness.  Construction derives the netlist's
    :func:`clock_schedule`, so a netlist the schedule cannot run is
    refused here.

    Args:
        sim: A lane simulator (``BitParallelSimulator`` or
            ``NumpySimulator``) already constructed over the netlist.
        lanes: Lane count (must match the simulator's packing).
        rom: Shared instruction ROM (every lane runs one program), or
        roms: Per-lane instruction ROMs (one program per lane).
            Exactly one of ``rom``/``roms`` must be given.
        base_memory: Shared initial data image, copied per lane, or
        memories: Per-lane initial data images.  Exactly one must be
            given.
        halt_word: ``pc -> instruction word`` for fetches past the
            program end (the consumers encode a self-branch).  Kept a
            callable so this module never imports the ISA layer.
        halt_words: Optional shared memo dict for ``halt_word`` results
            (entries are pure functions of the PC, so campaign contexts
            pass one dict across many harnesses).
        pc_bits: PC bus width; required on the array path (it sizes
            the fetch table), ignored on the list path.
    """

    def __init__(
        self,
        sim,
        *,
        lanes: int,
        rom: Sequence[int] | None = None,
        roms: Sequence[Sequence[int]] | None = None,
        base_memory: Sequence[int] | None = None,
        memories: Sequence[Sequence[int]] | None = None,
        halt_word: Callable[[int], int],
        halt_words: dict[int, int] | None = None,
        pc_bits: int | None = None,
    ) -> None:
        if (rom is None) == (roms is None):
            raise SimulationError("pass exactly one of rom= or roms=")
        if (base_memory is None) == (memories is None):
            raise SimulationError(
                "pass exactly one of base_memory= or memories="
            )
        if roms is not None and len(roms) != lanes:
            raise SimulationError(f"{len(roms)} ROMs for {lanes} lanes")
        if memories is not None and len(memories) != lanes:
            raise SimulationError(
                f"{len(memories)} memory images for {lanes} lanes"
            )
        self._schedule = clock_schedule(sim.netlist)
        self.sim = sim
        self.lanes = lanes
        self._rom = list(rom) if rom is not None else None
        self._roms = (
            [list(r) for r in roms] if roms is not None else None
        )
        self._halt_word = halt_word
        self._halt_words = halt_words if halt_words is not None else {}
        self.array_mode = hasattr(sim, "read_output_array")
        if memories is None:
            memories = [list(base_memory) for _ in range(lanes)]
        if self.array_mode:
            import numpy as np

            if pc_bits is None:
                raise SimulationError(
                    "pc_bits is required on the array path"
                )
            self._np = np
            self._memory = np.asarray(memories, dtype=np.uint64)
            self._lane_index = np.arange(lanes)
            self._fetch = self._build_fetch_table(pc_bits)
        else:
            self.memories = [list(image) for image in memories]

    def _halt(self, pc: int) -> int:
        word = self._halt_words.get(pc)
        if word is None:
            word = self._halt_words[pc] = self._halt_word(pc)
        return word

    def _build_fetch_table(self, pc_bits: int):
        """Instruction word per (lane,) possible PC, as a gather table.

        The PC bus is at most 8 bits, so the whole fetch path -- ROM
        lookup plus synthetic halt padding past the program end --
        precomputes into at most 256 words (per lane when ROMs
        differ); ``fetch[pc]`` then replaces the per-lane Python
        fetch loop with one vectorized gather.
        """
        np = self._np
        size = 1 << pc_bits
        if self._rom is not None:
            table = np.zeros(size, dtype=np.uint64)
            table[: len(self._rom)] = self._rom
            for pc in range(len(self._rom), size):
                table[pc] = self._halt(pc)
            return table
        table = np.zeros((self.lanes, size), dtype=np.uint64)
        for lane, rom in enumerate(self._roms):
            table[lane, : len(rom)] = rom
            for pc in range(len(rom), size):
                table[lane, pc] = self._halt(pc)
        return table

    def _fetch_array(self, pcs):
        if self._fetch.ndim == 1:
            return self._fetch[pcs]
        return self._fetch[self._lane_index, pcs]

    def _load_array(self, addresses):
        return self._memory[self._lane_index, addresses]

    def _fetch_lists(self, pcs: list[int]) -> list[int]:
        words = []
        for lane, pc in enumerate(pcs):
            rom = self._rom if self._rom is not None else self._roms[lane]
            words.append(rom[pc] if pc < len(rom) else self._halt(pc))
        return words

    def _load_lists(self, addresses: list[int]) -> list[int]:
        return [
            memory[address]
            for memory, address in zip(self.memories, addresses)
        ]

    def step(self) -> None:
        """Advance every lane one architectural cycle."""
        sim = self.sim
        if self.array_mode:
            we, waddr, wdata = self._schedule.clock(
                sim, sim.read_output_array, self._fetch_array, self._load_array
            )
            we = we.astype(bool)
            self._memory[self._lane_index[we], waddr[we]] = wdata[we]
        else:
            we, waddr, wdata = self._schedule.clock(
                sim, sim.read_output, self._fetch_lists, self._load_lists
            )
            for lane in range(self.lanes):
                if we[lane]:
                    self.memories[lane][waddr[lane]] = wdata[lane]

    def run(self, cycles: int) -> None:
        """Reset, run ``cycles`` architectural cycles, settle outputs."""
        self.sim.reset()
        for _ in range(cycles):
            self.step()
        self.sim.settle()

    def memory_rows(self) -> list[list[int]]:
        """Final per-lane data memories as plain Python int lists."""
        if self.array_mode:
            return self._memory.tolist()
        return [list(image) for image in self.memories]
