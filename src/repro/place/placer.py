"""Two-stage placement: greedy seed-and-grow + simulated annealing.

The structured-ASIC recipe (SNIPPETS.md snippets 1-3): a constructive
initial placement ordered by dependency level -- flip-flops first
(level 0), then combinational cells level by level, each seeded at the
median of its already-placed drivers and grown onto the nearest free
compatible slot -- followed by simulated-annealing refinement that
swaps/moves cells between same-kind slots to minimize total
half-perimeter wirelength (HPWL).

Everything is deterministic given ``(netlist, fabric, seed)``: the
annealer draws from its own ``random.Random(seed)``, move evaluation
is incremental over the nets touching the moved cells, and the
best-seen placement is returned -- so the annealed HPWL is *never*
worse than the greedy one by construction.  Multi-config sweeps fan
placements out per config via :func:`repro.exec.parallel_map` (each
placement itself stays single-process), so ``--jobs`` cannot perturb
results.

The bridge back into PPA is :func:`net_lengths` /
:func:`rc_annotation`: placed HPWL per net, scaled by the technology's
per-metre wire constants, becomes the
:class:`~repro.netlist.load.RCAnnotation` that
:func:`repro.netlist.sta.timing_report` and the power reports consume.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro import obs
from repro.errors import PlacementError
from repro.netlist.core import CONST0, CONST1, Netlist
from repro.netlist.load import RCAnnotation, WireRC
from repro.netlist.nsim import topological_order
from repro.pdk.cells import CellLibrary
from repro.place.fabric import Fabric, fit_report, slot_kind_for_cell

#: Annealing sweeps (each sweep proposes ``MOVES_PER_CELL * cells`` moves).
DEFAULT_SWEEPS = 10

#: Proposed moves per cell per sweep.
MOVES_PER_CELL = 4

#: Initial annealing temperature in slot units of HPWL delta.
_T_INITIAL = 3.0

#: Geometric cooling factor per sweep.
_T_ALPHA = 0.7

_PLACE_RUNS = obs.counter("place.runs")
_ANNEAL_MOVES = obs.counter("place.anneal.moves")
_ANNEAL_ACCEPTED = obs.counter("place.anneal.accepted")
_IMPROVEMENT = obs.histogram("place.improvement_pct")


@dataclass(frozen=True)
class Placement:
    """One placed design.

    Attributes:
        design: Netlist name.
        fabric: The fabric placed onto.
        seed: Annealing seed.
        locations: ``(row, col)`` per instance index.
        greedy_hpwl: Total HPWL of the constructive placement, metres.
        hpwl: Total HPWL after annealing, metres (never worse than
            ``greedy_hpwl``).
        anneal_moves: Moves proposed by the annealer.
        anneal_accepted: Moves accepted.
    """

    design: str
    fabric: Fabric
    seed: int
    locations: tuple[tuple[int, int], ...]
    greedy_hpwl: float
    hpwl: float
    anneal_moves: int
    anneal_accepted: int

    @property
    def improvement_pct(self) -> float:
        """Annealing HPWL improvement over greedy, in percent."""
        if self.greedy_hpwl <= 0.0:
            return 0.0
        return 100.0 * (self.greedy_hpwl - self.hpwl) / self.greedy_hpwl


class _NetModel:
    """Slot-unit geometry of a design's routable nets.

    Cells live at ``(x, y) = (col, row)``; primary-input pins sit one
    pitch off the west edge, primary-output pins one pitch off the
    east edge, each spread evenly along its edge in a deterministic
    (sorted bus name, then bit) order.  Nets tied to the constant
    rails and nets with fewer than two pins are unroutable and carry
    no length.
    """

    def __init__(self, netlist: Netlist, fabric: Fabric) -> None:
        self.netlist = netlist
        self.fabric = fabric
        self.fixed_pins: dict[int, list[tuple[float, float]]] = {}
        self._add_port_pins(netlist.inputs, x=-1.0)
        self._add_port_pins(netlist.outputs, x=float(fabric.cols))

        members: dict[int, list[int]] = {}
        self.inst_nets: list[tuple[int, ...]] = []
        for index, instance in enumerate(netlist.instances):
            touched: list[int] = []
            for net in (*instance.inputs, instance.output):
                if net in (CONST0, CONST1) or net in touched:
                    continue
                touched.append(net)
                members.setdefault(net, []).append(index)
            self.inst_nets.append(tuple(touched))

        # Only nets with >= 2 pins need routing; single-pin nets (an
        # unconsumed output) have zero extent by definition.
        self.net_members: dict[int, tuple[int, ...]] = {}
        for net, insts in members.items():
            if len(insts) + len(self.fixed_pins.get(net, ())) >= 2:
                self.net_members[net] = tuple(insts)
        self.routable = frozenset(self.net_members)

    def _add_port_pins(self, buses, x: float) -> None:
        pins = [
            net
            for name in sorted(buses)
            for net in buses[name].nets
            if net not in (CONST0, CONST1)
        ]
        if not pins:
            return
        spread = self.fabric.rows / len(pins)
        for index, net in enumerate(pins):
            y = (index + 0.5) * spread - 0.5
            self.fixed_pins.setdefault(net, []).append((x, y))

    def net_span(
        self, net: int, locations: list[tuple[int, int]]
    ) -> float:
        """HPWL of one net in slot units."""
        min_x = min_y = math.inf
        max_x = max_y = -math.inf
        for x, y in self.fixed_pins.get(net, ()):
            if x < min_x:
                min_x = x
            if x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            if y > max_y:
                max_y = y
        for index in self.net_members[net]:
            row, col = locations[index]
            if col < min_x:
                min_x = col
            if col > max_x:
                max_x = col
            if row < min_y:
                min_y = row
            if row > max_y:
                max_y = row
        return (max_x - min_x) + (max_y - min_y)

    def total_hpwl(self, locations: list[tuple[int, int]]) -> float:
        """Total HPWL over every routable net, slot units."""
        return sum(
            self.net_span(net, locations) for net in self.net_members
        )


def dependency_levels(netlist: Netlist) -> list[int]:
    """Per-instance dependency level: sequentials 0, combinational
    cells one past their deepest instance-driven input."""
    index_of = {id(inst): i for i, inst in enumerate(netlist.instances)}
    driver_of: dict[int, int] = {
        inst.output: i for i, inst in enumerate(netlist.instances)
    }
    levels = [0] * len(netlist.instances)
    for instance in topological_order(netlist):
        deepest = 0
        for net in instance.inputs:
            driver = driver_of.get(net)
            if driver is not None and levels[driver] + 1 > deepest:
                deepest = levels[driver] + 1
        levels[index_of[id(instance)]] = deepest
    return levels


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _nearest_free_slot(
    fabric: Fabric,
    occupied: dict[tuple[int, int], int],
    kind: str,
    target: tuple[float, float],
) -> tuple[int, int]:
    """Closest free slot of ``kind`` to ``target`` (expanding rings).

    Candidates at each Chebyshev radius are ranked by true squared
    distance then ``(row, col)``, so the search is deterministic.
    """
    t_row = min(max(target[1], 0.0), fabric.rows - 1.0)
    t_col = min(max(target[0], 0.0), fabric.cols - 1.0)
    centre_row, centre_col = int(round(t_row)), int(round(t_col))
    for radius in range(max(fabric.rows, fabric.cols) + 1):
        best: tuple[float, int, int] | None = None
        for d_row in range(-radius, radius + 1):
            row = centre_row + d_row
            if not 0 <= row < fabric.rows:
                continue
            cols = (
                range(centre_col - radius, centre_col + radius + 1)
                if abs(d_row) == radius
                else (centre_col - radius, centre_col + radius)
            )
            for col in cols:
                if not 0 <= col < fabric.cols:
                    continue
                if (row, col) in occupied:
                    continue
                if fabric.slot_kind(row, col) != kind:
                    continue
                dist = (row - t_row) ** 2 + (col - t_col) ** 2
                key = (dist, row, col)
                if best is None or key < best:
                    best = key
        if best is not None:
            return best[1], best[2]
    raise PlacementError(
        f"no free {kind!r} slot on fabric {fabric.name!r}"
    )


def _greedy_place(
    netlist: Netlist, fabric: Fabric, model: _NetModel
) -> list[tuple[int, int]]:
    """Seed-and-grow constructive placement by dependency level."""
    levels = dependency_levels(netlist)
    order = sorted(range(len(netlist.instances)), key=lambda i: (levels[i], i))
    centre = (fabric.cols / 2.0, fabric.rows / 2.0)
    occupied: dict[tuple[int, int], int] = {}
    locations: list[tuple[int, int] | None] = [None] * len(netlist.instances)
    for index in order:
        xs: list[float] = []
        ys: list[float] = []
        for net in model.inst_nets[index]:
            for x, y in model.fixed_pins.get(net, ()):
                xs.append(x)
                ys.append(y)
            for member in model.net_members.get(net, ()):
                placed = locations[member]
                if member != index and placed is not None:
                    ys.append(placed[0])
                    xs.append(placed[1])
        target = (_median(xs), _median(ys)) if xs else centre
        kind = slot_kind_for_cell(netlist.instances[index].cell)
        slot = _nearest_free_slot(fabric, occupied, kind, target)
        occupied[slot] = index
        locations[index] = slot
    return locations  # type: ignore[return-value]


def _anneal(
    netlist: Netlist,
    fabric: Fabric,
    model: _NetModel,
    locations: list[tuple[int, int]],
    seed: int,
    sweeps: int,
) -> tuple[list[tuple[int, int]], float, int, int]:
    """Refine ``locations`` in place; returns best placement seen.

    Classic Metropolis annealing over swap/relocate moves between
    same-kind slots, with incremental HPWL deltas over only the nets
    touching the moved cell(s) and geometric cooling.  Tracking the
    best-seen state guarantees the result never regresses below the
    constructive placement.
    """
    rng = random.Random(seed)
    count = len(netlist.instances)
    lengths = {net: model.net_span(net, locations) for net in model.net_members}
    cost = sum(lengths.values())
    slot_owner = {slot: index for index, slot in enumerate(locations)}
    kind_slots = {
        kind: fabric.slots_of_kind(kind) for kind in ("logic", "seq")
    }
    inst_kind = [
        slot_kind_for_cell(instance.cell) for instance in netlist.instances
    ]

    best = list(locations)
    best_cost = cost
    moves = accepted = 0
    temperature = _T_INITIAL
    for _ in range(max(0, sweeps)):
        for _ in range(MOVES_PER_CELL * count):
            moves += 1
            index = rng.randrange(count)
            kind = inst_kind[index]
            slots = kind_slots[kind]
            target = slots[rng.randrange(len(slots))]
            source = locations[index]
            if target == source:
                continue
            other = slot_owner.get(target)

            touched = list(model.inst_nets[index])
            if other is not None:
                for net in model.inst_nets[other]:
                    if net not in touched:
                        touched.append(net)
            touched = [net for net in touched if net in model.routable]
            before = sum(lengths[net] for net in touched)

            locations[index] = target
            if other is not None:
                locations[other] = source
            after_lengths = {
                net: model.net_span(net, locations) for net in touched
            }
            delta = sum(after_lengths.values()) - before

            if delta <= 0.0 or rng.random() < math.exp(
                -delta / max(temperature, 1e-9)
            ):
                accepted += 1
                cost += delta
                lengths.update(after_lengths)
                slot_owner[target] = index
                if other is not None:
                    slot_owner[source] = other
                else:
                    del slot_owner[source]
                if cost < best_cost:
                    best_cost = cost
                    best = list(locations)
            else:
                locations[index] = source
                if other is not None:
                    locations[other] = target
        temperature *= _T_ALPHA
    return best, best_cost, moves, accepted


def place(
    netlist: Netlist,
    fabric: Fabric,
    seed: int = 0,
    sweeps: int = DEFAULT_SWEEPS,
) -> Placement:
    """Place ``netlist`` on ``fabric``; deterministic given ``seed``.

    Raises:
        PlacementError: When the design overflows the fabric (the
            message carries the :func:`~repro.place.fabric.fit_report`
            diagnostics).
    """
    with obs.span(
        "place", design=netlist.name, fabric=fabric.name, seed=seed
    ) as sp:
        fit = fit_report(netlist, fabric)
        if not fit.fits:
            raise PlacementError(
                f"design does not fit:\n{fit.render()}"
            )
        model = _NetModel(netlist, fabric)
        with obs.span("place.greedy", design=netlist.name):
            locations = _greedy_place(netlist, fabric, model)
            greedy_units = model.total_hpwl(locations)
        with obs.span("place.anneal", design=netlist.name):
            best, best_units, moves, accepted = _anneal(
                netlist, fabric, model, locations, seed, sweeps
            )
        pitch = fabric.pitch
        placement = Placement(
            design=netlist.name,
            fabric=fabric,
            seed=seed,
            locations=tuple(best),
            greedy_hpwl=greedy_units * pitch,
            hpwl=best_units * pitch,
            anneal_moves=moves,
            anneal_accepted=accepted,
        )
        _PLACE_RUNS.inc()
        _ANNEAL_MOVES.inc(moves)
        _ANNEAL_ACCEPTED.inc(accepted)
        _IMPROVEMENT.observe(placement.improvement_pct)
        sp.note(
            hpwl=placement.hpwl,
            improvement_pct=round(placement.improvement_pct, 2),
        )
        return placement


def net_lengths(netlist: Netlist, placement: Placement) -> dict[int, float]:
    """Routed length estimate (HPWL) per net in metres.

    Only routable nets (two or more pins, constants excluded) appear;
    everything else is a local tie with no wire.
    """
    model = _NetModel(netlist, placement.fabric)
    locations = list(placement.locations)
    pitch = placement.fabric.pitch
    return {
        net: model.net_span(net, locations) * pitch
        for net in sorted(model.net_members)
    }


def rc_annotation(
    netlist: Netlist,
    placement: Placement,
    library: CellLibrary,
) -> RCAnnotation:
    """Per-net wire RC from placed HPWL and the library's constants.

    ``R_net = wire_resistance * L``, ``C_net = wire_capacitance * L``
    with ``L`` the placed HPWL in metres -- the back-annotation that
    :func:`repro.netlist.sta.timing_report` and the power reports
    consume via their ``rc=`` parameter.
    """
    nets = {
        net: WireRC(
            resistance=library.wire_resistance * length,
            capacitance=library.wire_capacitance * length,
            length=length,
        )
        for net, length in net_lengths(netlist, placement).items()
        if length > 0.0
    }
    return RCAnnotation(
        source=f"place:{placement.fabric.name}:seed{placement.seed}",
        nets=nets,
    )


def wire_aware_ppa(
    netlist: Netlist,
    placement: Placement,
    library: CellLibrary,
) -> dict:
    """Wire-blind vs wire-aware PPA for one placed design.

    Runs STA and flat-activity power twice -- once in the pinned
    ``rc=None`` mode, once with the placement's RC annotation -- and
    reports both plus the relative overheads.  Wire parasitics only
    ever add load and delay, so the aware numbers are >= the blind
    ones on every design.
    """
    from repro.netlist.power import power_report
    from repro.netlist.sta import timing_report

    rc = rc_annotation(netlist, placement, library)
    blind_timing = timing_report(netlist, library)
    aware_timing = timing_report(netlist, library, rc=rc)
    blind_power = power_report(netlist, library)
    aware_power = power_report(netlist, library, rc=rc)

    def _overhead(aware: float, blind: float) -> float:
        return 100.0 * (aware - blind) / blind if blind > 0.0 else 0.0

    return {
        "design": netlist.name,
        "technology": library.name,
        "fabric": placement.fabric.name,
        "seed": placement.seed,
        "hpwl_m": placement.hpwl,
        "total_wirelength_m": rc.total_wirelength,
        "wire_blind": {
            "critical_path_delay": blind_timing.critical_path_delay,
            "fmax": blind_timing.fmax,
            "energy_per_cycle": blind_power.energy_per_cycle,
        },
        "wire_aware": {
            "critical_path_delay": aware_timing.critical_path_delay,
            "fmax": aware_timing.fmax,
            "energy_per_cycle": aware_power.energy_per_cycle,
            "wire_energy": aware_power.wire_energy,
        },
        "delay_overhead_pct": _overhead(
            aware_timing.critical_path_delay, blind_timing.critical_path_delay
        ),
        "energy_overhead_pct": _overhead(
            aware_power.energy_per_cycle, blind_power.energy_per_cycle
        ),
    }
