"""Shared net-load model for timing and power.

Before this module existed the two PPA analyses priced a net
differently: :mod:`repro.netlist.sta` derated cell delay by logical
fanout while :mod:`repro.netlist.power` charged multi-sink nets
nothing at all.  Both now cost a net through the same model defined
here:

* every sink beyond the first adds one gate-input load, derating the
  driving cell's delay by ``fanout_slope`` per extra load
  (:func:`fanout_derate`);
* a placed net additionally carries wire parasitics
  (:class:`WireRC`): its capacitance converts to extra gate-equivalent
  loads through the library's per-input capacitance (so wire load and
  fanout load are the *same axis*, not two formulas), plus a
  distributed-RC (Elmore) delay term ``0.5 * R_net * C_net`` added to
  every transition through the net;
* the switched wire capacitance costs ``0.5 * C_net * VDD^2`` per
  driver output toggle, which power accounting adds to the driving
  cell's switching energy.

The wire-blind estimate is the explicit ``rc=None`` mode of
:func:`repro.netlist.sta.timing_report` and the power reports: no
:class:`RCAnnotation` means zero wire resistance and capacitance, and
the arithmetic collapses bit-exactly to the historical fanout-only
derate (pinned by ``tests/netlist/test_load.py``).  Placement-derived
annotations come from :func:`repro.place.rc_annotation`.

Both analyses share one technology-independent index per netlist,
:func:`cell_kinds`: each instance's cell kind, whether it holds state,
and the fanout load on its output net, derived from the netlist's
frozen cell arrays.  A technology then prices each cell kind once, not
each instance, and :func:`output_wires` adds each output net's routed
parasitics as arrays (zeros when wire-blind), so the wire-blind and
wire-aware analyses run the same vectorized arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.core import CELL_NAMES, Netlist

#: Default incremental delay per extra fanout load (dimensionless).
#: Canonical home; :mod:`repro.netlist.sta` re-exports it.
DEFAULT_FANOUT_SLOPE = 0.05


def fanout_counts(netlist: Netlist) -> np.ndarray:
    """Sink count of every net id: instance input pins plus primary outputs."""
    inputs = netlist.cells.inputs
    ports = [net for bus in netlist.outputs.values() for net in bus]
    sinks = np.concatenate((inputs[inputs >= 0], np.array(ports, dtype=np.int32)))
    return np.bincount(sinks, minlength=netlist.net_count)


def fanout_derate(fanout: int, slope: float = DEFAULT_FANOUT_SLOPE) -> float:
    """Wire-blind delay derate: ``1 + slope * (fanout - 1)``, floored at 1."""
    return 1.0 + slope * max(0, fanout - 1)


@dataclass(frozen=True)
class CellKinds:
    """One netlist's instances by cell kind, with their fanout loads.

    Attributes:
        names: Distinct cell names, in order of first use.
        kind: Index into ``names`` of every instance, in instance order.
        counts: Instances of each kind.
        sequential: Whether each instance holds state.
        loads: Sinks past the first on each instance's output net, so
            ``1 + slope * loads`` is :func:`fanout_derate` per instance.
    """

    names: tuple[str, ...]
    kind: np.ndarray
    counts: tuple[int, ...]
    sequential: np.ndarray
    loads: np.ndarray

    def spread(self, values: Sequence[float]) -> np.ndarray:
        """One value per kind as one float per instance, instance order."""
        return np.asarray(values, dtype=np.float64)[self.kind]


def cell_kinds(netlist: Netlist) -> CellKinds:
    """The :class:`CellKinds` of ``netlist``, memoized on it.

    Like the other per-netlist plans, the memo is dropped when the
    netlist is pickled (``Netlist.__getstate__``).
    """
    cached = getattr(netlist, "_cell_kinds", None)
    if cached is not None:
        return cached
    cells = netlist.cells
    codes, first = np.unique(cells.kind, return_index=True)
    used = codes[np.argsort(first)]  # kind codes in order of first use
    index = np.zeros(len(CELL_NAMES), dtype=np.intp)
    index[used] = np.arange(len(used))
    kind = index[cells.kind]
    cached = netlist._cell_kinds = CellKinds(
        names=tuple(CELL_NAMES[code] for code in used.tolist()),
        kind=kind,
        counts=tuple(np.bincount(kind, minlength=len(used)).tolist()),
        sequential=cells.sequential,
        loads=np.maximum(fanout_counts(netlist)[cells.output] - 1, 0).astype(np.float64),
    )
    return cached


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum, bit-equal to adding the values one at a time.

    ``np.sum`` adds pairwise and Python 3.12's ``sum`` compensates, so
    either can differ from a running total in the last bit.
    """
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


@dataclass(frozen=True)
class WireRC:
    """Lumped parasitics of one routed net.

    Attributes:
        resistance: Total trace resistance in ohms.
        capacitance: Total trace capacitance in farads.
        length: Routed length estimate (HPWL) in metres.
    """

    resistance: float
    capacitance: float
    length: float

    @property
    def delay(self) -> float:
        """Distributed-RC (Elmore) wire delay in seconds: ``R*C/2``."""
        return 0.5 * self.resistance * self.capacitance

    def switch_energy(self, vdd: float) -> float:
        """Energy to charge the trace once: ``C * VDD^2 / 2`` joules."""
        return 0.5 * self.capacitance * vdd * vdd


@dataclass(frozen=True)
class RCAnnotation:
    """Per-net wire parasitics back-annotated from a placement.

    Attributes:
        source: Provenance label (e.g. ``"place:small:seed0"``).
        nets: Mapping from net id to :class:`WireRC`.  Nets absent from
            the map are treated as zero-length (local) wires.
    """

    source: str
    nets: Mapping[int, WireRC]

    def wire(self, net: int) -> WireRC | None:
        """Parasitics of ``net``, or ``None`` for an unrouted net."""
        return self.nets.get(net)

    def wire_delay(self, net: int) -> float:
        """Additive distributed wire delay of ``net`` in seconds."""
        wire = self.nets.get(net)
        return wire.delay if wire is not None else 0.0

    def capacitance(self, net: int) -> float:
        """Wire capacitance of ``net`` in farads (0.0 if unrouted)."""
        wire = self.nets.get(net)
        return wire.capacitance if wire is not None else 0.0

    def switch_energy(self, net: int, vdd: float) -> float:
        """Per-toggle wire switching energy of ``net`` in joules."""
        wire = self.nets.get(net)
        return wire.switch_energy(vdd) if wire is not None else 0.0

    @property
    def total_wirelength(self) -> float:
        """Summed routed length over every annotated net, in metres."""
        return sum(wire.length for wire in self.nets.values())

    @property
    def total_capacitance(self) -> float:
        """Summed wire capacitance over every annotated net, in farads."""
        return sum(wire.capacitance for wire in self.nets.values())


def output_wires(netlist: Netlist, rc: RCAnnotation | None) -> np.ndarray:
    """Wire capacitance (F) and delay (s) rows, ``(2, cells)``, of each
    instance's output net, zero where unrouted.  With ``rc=None`` they
    are ``(2, 1)`` zeros, which broadcast over every instance."""
    if rc is None:
        return np.zeros((2, 1))
    wires = np.zeros((2, netlist.net_count))
    for net, wire in rc.nets.items():
        wires[:, net] = wire.capacitance, wire.delay
    return wires.take(netlist.cells.output, axis=1)


def net_derate(
    fanout: int,
    wire_capacitance: float,
    input_capacitance: float,
    slope: float = DEFAULT_FANOUT_SLOPE,
) -> float:
    """Unified load derate: wire capacitance counts as extra fanout.

    ``1 + slope * (fanout - 1 + C_wire / C_in)`` -- each sink past the
    first is one gate-input load, and the routed trace adds
    ``C_wire / C_in`` gate-equivalents on the same axis.  With zero
    wire capacitance (or a library that characterizes no
    ``input_capacitance``) this is exactly :func:`fanout_derate`.
    """
    loads = float(max(0, fanout - 1))
    if wire_capacitance > 0.0 and input_capacitance > 0.0:
        loads += wire_capacitance / input_capacitance
    return 1.0 + slope * loads
