"""Area, device-count, and composition statistics for netlists.

These reports correspond to the synthesis-report numbers the paper
quotes: gate count, printed area (cm^2 scale for EGFET), and the
register-vs-combinational split that drives Figures 7 and 8's stacked
bars.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.netlist.core import Netlist
from repro.netlist.load import cell_kinds, ordered_sum
from repro.pdk.cells import CellLibrary


@dataclass(frozen=True)
class AreaReport:
    """Printed-area breakdown of one netlist in one technology.

    Attributes:
        total: Total cell area in m^2.
        combinational: Area of combinational cells in m^2.
        sequential: Area of flip-flops and latches in m^2.
        gate_count: Total placed cell count.
        dff_count: Number of sequential cells.
        transistors: Total printed transistor count.
        resistors: Total printed pull-up resistor count (EGFET only).
    """

    total: float
    combinational: float
    sequential: float
    gate_count: int
    dff_count: int
    transistors: int
    resistors: int

    @property
    def sequential_fraction(self) -> float:
        """Fraction of total area spent on state-holding cells."""
        return self.sequential / self.total if self.total else 0.0


def cell_histogram(netlist: Netlist) -> Counter[str]:
    """Count placed instances per cell name, in order of first use."""
    kinds = cell_kinds(netlist)
    return Counter(dict(zip(kinds.names, kinds.counts)))


def area_report(netlist: Netlist, library: CellLibrary) -> AreaReport:
    """Compute the area/composition report of ``netlist`` in ``library``.

    Each cell kind is looked up once (:func:`repro.netlist.load.cell_kinds`);
    the areas still add up in instance order.
    """
    kinds = cell_kinds(netlist)
    cells = [library.cell(name) for name in kinds.names]
    area = kinds.spread([cell.area for cell in cells])
    sequential = kinds.sequential
    return AreaReport(
        total=ordered_sum(area),
        combinational=ordered_sum(area[~sequential]),
        sequential=ordered_sum(area[sequential]),
        gate_count=len(netlist.instances),
        dff_count=int(sequential.sum()),
        transistors=sum(c.transistors * n for c, n in zip(cells, kinds.counts)),
        resistors=sum(c.resistors * n for c, n in zip(cells, kinds.counts)),
    )
