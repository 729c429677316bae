"""Static timing analysis over mapped netlists: the one timing model.

Computes per-net arrival times level by level and reports the critical
path and the resulting maximum clock frequency, mirroring what the
paper reads out of Design Compiler for each core.

Printed transistor-resistor logic is extremely asymmetric -- the
resistive pull-up makes rising edges ~7x slower than falling edges --
so a correct STA must track *polarity*: an inverting gate's slow rising
output is caused by its input's falling transition and vice versa.
Arrival times are therefore propagated as (rise, fall) pairs:

* inverting cells (INV/NAND/NOR): ``rise(out) = max fall(in) + t_rise``
  and ``fall(out) = max rise(in) + t_fall``;
* non-inverting cells (AND/OR/TSBUF): same-polarity propagation;
* non-monotone cells (XOR/XNOR): either input transition can cause
  either output transition -- worst of both;
* sequential outputs launch at their clock-to-Q rise/fall delays.

A path endpoint's arrival is the max of its rise and fall times.  The
clock period is the worst endpoint arrival; ``fmax = 1 / period``.  A
``pessimistic`` mode (worst delay on every edge) is kept for ablation.

The model has two parts, shared by STA and the Monte-Carlo fleet
(:mod:`repro.mc.timing`):

* :func:`cell_delays` -- each cell's (rise, fall) delay derated through
  the shared net-load model (:mod:`repro.netlist.load`):
  ``1 + fanout_slope * (fanout - 1)`` in the wire-blind default --
  printed gates drive large electrolyte gate capacitances, so fanout
  matters -- and, when a placement-derived
  :class:`~repro.netlist.load.RCAnnotation` is supplied via ``rc=``,
  wire capacitance joins the same derate as extra gate-equivalent loads
  while the distributed wire delay (``R*C/2``) adds to every transition
  through the net.  ``rc=None`` is the explicit wire-blind mode.
* :func:`propagate` -- one arrival pass over the numpy gather plans
  (:func:`repro.netlist.nsim.numpy_netlist`).  Arrivals form a
  ``(2 * rows, columns)`` matrix, rise and fall of net row ``r`` at rows
  ``2r`` and ``2r + 1``; every column is one printed unit whose per-cell
  delay factors scale both edges.  The plans sort each level's rows by
  ufunc group, and the groups are the polarity classes, so a level is
  one gather of the input edges (the inverting block's gather reads the
  opposite edge), one max over the two inputs, one max of both edges
  over the non-monotone block, and one add of the per-row delays.

:func:`timing_report` is the one-column case with every factor 1.0;
the fleet's nominal delay is therefore STA's critical delay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.core import CELL_NAMES, Netlist, SEQUENTIAL_CELLS
from repro.netlist.load import (
    DEFAULT_FANOUT_SLOPE,
    RCAnnotation,
    cell_kinds,
    output_wires,
)
from repro.netlist.nsim import _GROUP, numpy_netlist
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span
from repro.pdk.cells import CellLibrary

_STA_REPORTS = _obs_counter("sta.reports")

#: Cells whose output transition is caused by the opposite input edge
#: (ufunc groups 1-2 of the numpy plans: NAND/INV, NOR).
INVERTING_CELLS = frozenset(cell for cell, g in _GROUP.items() if g in (1, 2))

#: Cells where either input edge can cause either output edge (ufunc
#: groups 4-5: XOR, XNOR).
NON_MONOTONE_CELLS = frozenset(cell for cell, g in _GROUP.items() if g in (4, 5))

_EDGES = np.array([0, 1], dtype=np.intp)


@dataclass(frozen=True)
class TimingReport:
    """Result of static timing analysis.

    Attributes:
        critical_path_delay: Worst endpoint arrival in seconds.
        fmax: Maximum clock frequency in hertz.
        critical_path: Cell names along the worst path, source first.
        levels: Logic depth (cell count) of the worst path.
    """

    critical_path_delay: float
    fmax: float
    critical_path: tuple[str, ...]
    levels: int


@dataclass(frozen=True)
class ArrivalPlan:
    """The numpy gather plans of one netlist, re-indexed by edge row.

    Edge row ``2r`` is the rise arrival of net row ``r`` of the numpy
    layout and ``2r + 1`` its fall arrival.

    Attributes:
        edge_rows: Arrival-matrix row count (``2 * nets``).
        cell_edges: Edge rows of every instance output, instance order,
            rise then fall -- where :meth:`edge_delays` scatters
            :func:`cell_delays`.
        cell_of_edge: Instance driving each edge row, -1 for ports,
            constants and unused nets.
        levels: Per logic level ``(lo, hi, sources, both)``: its edge
            rows; the ``2 * (hi - lo)`` input edge rows it gathers
            (every output edge's first input, then its second input);
            the slice of the non-monotone block (or ``None``).
        widest: Most edge rows in one level.
        flop_edges: Edge rows of every sequential output.
        endpoint_edges: Rise and fall rows of each path endpoint: flop
            inputs in instance order, then the output buses.
        row_of: Net row of every net id.
    """

    edge_rows: int
    cell_edges: np.ndarray
    cell_of_edge: np.ndarray
    levels: tuple[tuple[int, int, np.ndarray, slice | None], ...]
    widest: int
    flop_edges: np.ndarray
    endpoint_edges: np.ndarray
    row_of: np.ndarray

    def edge_delays(self, delays: np.ndarray) -> np.ndarray:
        """Spread ``(cells, 2)`` delays onto the plan's edge rows."""
        out = np.zeros(self.edge_rows, dtype=np.float64)
        out[self.cell_edges] = delays.ravel()
        return out


def _edge_rows(rows) -> np.ndarray:
    """Rise and fall edge rows of each net row, interleaved."""
    return (2 * np.asarray(rows, dtype=np.intp)[:, None] + _EDGES).ravel()


def arrival_plan(netlist: Netlist) -> ArrivalPlan:
    """The :class:`ArrivalPlan` of ``netlist``, memoized on it.

    Raises :class:`~repro.errors.TimingError` on a combinational loop
    (from the levelizer).
    """
    cached = getattr(netlist, "_sta_plan", None)
    if cached is not None:
        return cached
    compiled = numpy_netlist(netlist)
    cells = netlist.cells
    row_of = compiled.layout.row_of
    driver = np.full(compiled.layout.rows, -1, dtype=np.intp)
    driver[row_of[cells.output]] = np.arange(len(cells.output))
    levels = []
    for level in compiled.levels:
        n = len(level.gather) // 2
        cuts = level.cuts
        sources = 2 * level.gather.reshape(2, n, 1) + _EDGES
        sources[:, cuts[1] : cuts[3]] ^= 1  # inverting: the opposite edge
        both = slice(2 * cuts[4], 2 * cuts[6]) if cuts[4] < cuts[6] else None
        levels.append((2 * level.lo, 2 * (level.lo + n), sources.ravel(), both))
    flop_inputs = cells.inputs[cells.sequential]
    ports = [net for bus in netlist.outputs.values() for net in bus]
    endpoints = np.concatenate(
        (row_of[flop_inputs[flop_inputs >= 0]], row_of[np.array(ports, dtype=np.intp)])
    )
    cached = netlist._sta_plan = ArrivalPlan(
        edge_rows=2 * compiled.layout.rows,
        cell_edges=_edge_rows(row_of[cells.output]),
        cell_of_edge=np.repeat(driver, 2),
        levels=tuple(levels),
        widest=max((hi - lo for lo, hi, _, _ in levels), default=0),
        flop_edges=_edge_rows(row_of[cells.output[cells.sequential]]),
        endpoint_edges=_edge_rows(endpoints),
        row_of=row_of,
    )
    return cached


def cell_delays(
    netlist: Netlist,
    library: CellLibrary,
    fanout_slope: float = DEFAULT_FANOUT_SLOPE,
    rc: RCAnnotation | None = None,
) -> np.ndarray:
    """Load-derated ``(rise, fall)`` delay per instance, ``(cells, 2)``.

    Each cell kind is looked up once and derated per instance through
    the netlist's :func:`~repro.netlist.load.cell_kinds`: the loads are
    its fanout plus the output wire's capacitance in gate-input
    equivalents (:func:`~repro.netlist.load.net_derate`), and the wire
    delay adds to both edges.  ``rc=None`` has no wire.
    """
    kinds = cell_kinds(netlist)
    cells = [library.cell(name) for name in kinds.names]
    table = np.array(
        [(cell.rise_delay, cell.fall_delay) for cell in cells],
        dtype=np.float64,
    ).reshape(-1, 2)
    capacitance, wire_delay = output_wires(netlist, rc)
    loads = kinds.loads
    if library.input_capacitance > 0.0:
        loads = loads + capacitance / library.input_capacitance
    derate = 1.0 + fanout_slope * loads
    return table[kinds.kind] * derate[:, None] + wire_delay[:, None]


def propagate(
    plan: ArrivalPlan,
    delays: np.ndarray,
    factors: np.ndarray,
    arrival: np.ndarray,
) -> np.ndarray:
    """Run the arrival pass; return each column's critical delay.

    Args:
        plan: The netlist's :class:`ArrivalPlan`.
        delays: Per-edge-row delays (:meth:`ArrivalPlan.edge_delays`).
        factors: ``(cells, columns)`` delay factor per cell and unit;
            one factor scales both of a cell's edges.
        arrival: ``(edge_rows, columns)`` matrix.  Port and constant
            rows are read as the caller left them (zeros, or port wire
            delays); sequential and logic rows are overwritten.
    """
    cell_of_edge = plan.cell_of_edge
    flops = plan.flop_edges
    if flops.size:
        arrival[flops] = factors[cell_of_edge[flops]] * delays[flops, None]
    columns = arrival.shape[1]
    gathered = np.empty((2 * plan.widest, columns), dtype=np.float64)
    scaled = np.empty((plan.widest, columns), dtype=np.float64)
    for lo, hi, sources, both in plan.levels:
        n = hi - lo
        inputs = gathered[: 2 * n]
        arrival.take(sources, 0, inputs, "clip")
        latest = inputs[:n]
        np.maximum(latest, inputs[n:], out=latest)
        if both is not None:
            block = latest[both]
            np.maximum(block[0::2], block[1::2], out=block[0::2])
            block[1::2] = block[0::2]
        delay = scaled[:n]
        factors.take(cell_of_edge[lo:hi], 0, delay, "clip")
        np.multiply(delay, delays[lo:hi, None], out=delay)
        np.add(latest, delay, out=arrival[lo:hi])
    if not plan.endpoint_edges.size:
        return np.zeros(columns, dtype=np.float64)
    return arrival.take(plan.endpoint_edges, 0).max(axis=0)


def timing_report(
    netlist: Netlist,
    library: CellLibrary,
    fanout_slope: float = DEFAULT_FANOUT_SLOPE,
    pessimistic: bool = False,
    rc: RCAnnotation | None = None,
) -> TimingReport:
    """Run STA on ``netlist`` with cells timed from ``library``.

    Args:
        netlist: The mapped design.
        library: Technology supplying per-cell delays.
        fanout_slope: Per-extra-load delay derate.
        pessimistic: Use the worst of rise/fall on every edge instead
            of polarity-aware propagation (ablation mode).
        rc: Optional placement-derived wire parasitics
            (:func:`repro.place.rc_annotation`).  ``None`` is the
            wire-blind estimate.

    Returns:
        A :class:`TimingReport`; ``fmax`` is infinite for a netlist
        with no timed paths (no cells).

    Raises:
        TimingError: On a combinational loop.
    """
    with _obs_span("sta", design=netlist.name, technology=library.name) as sp:
        report = _timing_report(netlist, library, fanout_slope, pessimistic, rc)
        _STA_REPORTS.inc()
        sp.note(fmax=report.fmax, levels=report.levels)
    return report


def _timing_report(
    netlist: Netlist,
    library: CellLibrary,
    fanout_slope: float,
    pessimistic: bool,
    rc: RCAnnotation | None,
) -> TimingReport:
    plan = arrival_plan(netlist)
    delays = cell_delays(netlist, library, fanout_slope, rc)
    if pessimistic:
        delays[:] = delays.max(axis=1, keepdims=True)
    arrival = np.zeros((plan.edge_rows, 1), dtype=np.float64)
    if rc is not None:
        # Port-driven nets have no driving cell to derate; their routed
        # trace still delays every sink.
        ports = [net for bus in netlist.inputs.values() for net in bus]
        arrival[_edge_rows(plan.row_of[ports]), 0] = np.repeat(
            [rc.wire_delay(net) for net in ports], 2
        )
    factors = np.ones((len(netlist.instances), 1), dtype=np.float64)
    worst = float(propagate(plan, plan.edge_delays(delays), factors, arrival)[0])
    path = _critical_path(netlist, plan, arrival[:, 0].tolist(), worst)
    return TimingReport(
        critical_path_delay=worst,
        fmax=1.0 / worst if worst > 0 else float("inf"),
        critical_path=path,
        levels=len(path),
    )


def _critical_path(
    netlist: Netlist, plan: ArrivalPlan, arrival: list[float], worst: float
) -> tuple[str, ...]:
    """Walk back from the first endpoint holding the worst arrival.

    Each step re-decides which input set the arrival, the last input
    winning a tie, along the edge its polarity class reads.
    """
    if worst <= 0:
        return ()

    def peak(row: int) -> float:
        return max(arrival[2 * row], arrival[2 * row + 1])

    ends = (plan.endpoint_edges[0::2] // 2).tolist()
    row = next(r for r in ends if peak(r) == worst)
    edge = 0 if arrival[2 * row] >= arrival[2 * row + 1] else 1
    driver = plan.cell_of_edge
    kind, inputs, row_of = netlist.cells.kind, netlist.cells.inputs, plan.row_of
    path: list[str] = []
    while driver[2 * row] >= 0:
        k = driver[2 * row]
        cell = CELL_NAMES[kind[k]]
        path.append(cell)
        if cell in SEQUENTIAL_CELLS:
            break
        rows = [int(row_of[net]) for net in inputs[k].tolist() if net >= 0]
        if cell in NON_MONOTONE_CELLS:
            times = [peak(r) for r in rows]
        else:
            if cell in INVERTING_CELLS:
                edge ^= 1
            times = [arrival[2 * r + edge] for r in rows]
        row = rows[len(times) - 1 - times[::-1].index(max(times))]
        if cell in NON_MONOTONE_CELLS:
            edge = 0 if arrival[2 * row] >= arrival[2 * row + 1] else 1
    path.reverse()
    return tuple(path)
