"""Activity-based power and energy estimation.

Follows the paper's methodology: every cell contributes its
characterized per-switch energy (Table 2) scaled by an activity factor
-- the paper reports an average simulated activity of **0.88** for its
cores (Section 8, footnote 6).  Power at a clock frequency ``f`` is
then ``P = E_cycle * f``.

Two activity sources are supported:

* a flat activity factor (:func:`power_report` with ``activity=``),
  matching the paper's reporting, and
* measured per-cell toggle counts from the gate-level simulator
  (:meth:`repro.netlist.sim.CycleSimulator.toggle_counts`), for
  ablation studies of the flat-activity assumption.

Measured activity additionally supports *attribution*
(:func:`attributed_power_report`): the same toggle counts rolled up
through the cell-library energy model into per-module and
per-cell-type energies, with a conservation invariant -- the
attributed energies sum bit-exactly to the matching
:func:`measured_power_report` total (the paper's Table 4 power splits,
reproduced from measured switching instead of a flat factor).

Net cost comes from the same shared load model STA uses
(:mod:`repro.netlist.load`): in the wire-blind ``rc=None`` default a
net is free on the power side (each sink's gate capacitance is part of
the *sink* cell's characterized energy, while STA derates the driver's
delay for the same loads), and with a placement-derived
:class:`~repro.netlist.load.RCAnnotation` the routed wire capacitance
joins on the identical axis both analyses share -- STA as extra
gate-equivalent fanout on the driver, power as ``C_wire * VDD^2 / 2``
per driver switch, charged to the driver's bucket.  ``rc=None``
results stay bit-exact with the pre-placement flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.netlist.core import Netlist, SEQUENTIAL_CELLS
from repro.netlist.load import RCAnnotation, cell_kinds, ordered_sum, output_wires
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span
from repro.pdk.cells import CellLibrary

_POWER_REPORTS = _obs_counter("power.reports")
_ATTRIBUTED_REPORTS = _obs_counter("power.attributed_reports")

#: Average simulated activity factor reported by the paper.
PAPER_ACTIVITY_FACTOR = 0.88


@dataclass(frozen=True)
class PowerReport:
    """Energy/power summary for one netlist in one technology.

    Attributes:
        energy_per_cycle: Expected switching energy per clock in J.
        combinational_energy: Per-cycle energy in combinational cells.
        sequential_energy: Per-cycle energy in flip-flops/latches.
        activity: Activity factor used.
        static_only_cells: Instances that never toggled over the
            measured window (0 for flat-activity reports, where every
            cell is assumed active).  Making these explicit keeps
            sparse toggle maps honest: an instance absent from the map
            is *counted*, not silently dropped.
        wire_energy: Per-cycle energy spent switching routed wire
            capacitance (0.0 for wire-blind ``rc=None`` reports).
            Informational -- each net's wire term is already folded
            into its driver's combinational/sequential bucket, so
            ``energy_per_cycle`` includes it.
    """

    energy_per_cycle: float
    combinational_energy: float
    sequential_energy: float
    activity: float
    static_only_cells: int = 0
    wire_energy: float = 0.0

    def power_at(self, frequency: float) -> float:
        """Average power in watts when clocked at ``frequency`` Hz."""
        return self.energy_per_cycle * frequency

    @property
    def sequential_fraction(self) -> float:
        """Fraction of per-cycle energy spent in sequential cells."""
        if self.energy_per_cycle == 0:
            return 0.0
        return self.sequential_energy / self.energy_per_cycle


def power_report(
    netlist: Netlist,
    library: CellLibrary,
    activity: float = PAPER_ACTIVITY_FACTOR,
    rc: RCAnnotation | None = None,
) -> PowerReport:
    """Estimate per-cycle energy with a flat activity factor.

    With ``rc`` (placement-derived wire parasitics), each driving
    instance additionally charges its output net's routed wire
    capacitance per switch (``C*VDD^2/2``, same activity factor);
    ``rc=None`` is the wire-blind estimate, bit-exact with the
    pre-placement analysis.
    """
    with _obs_span("power", design=netlist.name, technology=library.name):
        _POWER_REPORTS.inc()
        # One lookup per cell kind; the energies add in instance order.
        kinds = cell_kinds(netlist)
        capacitance = output_wires(netlist, rc)[0]
        wire = 0.5 * capacitance * library.vdd * library.vdd
        cell = kinds.spread([library.cell(name).energy for name in kinds.names])
        energy = (cell + wire) * activity
        combinational = ordered_sum(energy[~kinds.sequential])
        sequential = ordered_sum(energy[kinds.sequential])
        return PowerReport(
            energy_per_cycle=combinational + sequential,
            combinational_energy=combinational,
            sequential_energy=sequential,
            activity=activity,
            wire_energy=ordered_sum(wire * activity),
        )


def measured_power_report(
    netlist: Netlist,
    library: CellLibrary,
    toggles_per_cell: Mapping[int, int],
    cycles: int,
    rc: RCAnnotation | None = None,
) -> PowerReport:
    """Energy from measured toggle counts (one entry per instance index).

    Args:
        netlist: The simulated design.
        library: Technology supplying per-cell energies.
        toggles_per_cell: Output-toggle count per instance index, as
            produced by the gate-level simulator.
        cycles: Number of simulated cycles the counts cover.
        rc: Optional placement-derived wire parasitics; each measured
            output toggle then also charges the net's routed trace.
            ``rc=None`` is the wire-blind estimate, bit-exact with the
            pre-placement analysis.
    """
    with _obs_span(
        "power_measured", design=netlist.name, technology=library.name
    ):
        return _measured_power_report(
            netlist, library, toggles_per_cell, cycles, rc
        )


def _instance_energy(
    instance,
    library: CellLibrary,
    toggles: int,
    cycles: int,
    rc: RCAnnotation | None,
) -> float:
    """Per-cycle energy of one instance's measured switching.

    The single source of the per-instance float term: the measured
    total and both attribution rollups call this with identical
    arguments, so their sums agree to the last ulp (the conservation
    invariant of :func:`attributed_power_report`).
    """
    if rc is None:
        return library.cell(instance.cell).energy * toggles / max(1, cycles)
    wire = rc.switch_energy(instance.output, library.vdd)
    return (library.cell(instance.cell).energy + wire) * toggles / max(1, cycles)


def _measured_power_report(
    netlist: Netlist,
    library: CellLibrary,
    toggles_per_cell: Mapping[int, int],
    cycles: int,
    rc: RCAnnotation | None = None,
) -> PowerReport:
    combinational = 0.0
    sequential = 0.0
    wire_total = 0.0
    total_toggles = 0
    static_only = 0
    for index, instance in enumerate(netlist.instances):
        toggles = toggles_per_cell.get(index, 0)
        if not toggles:
            static_only += 1
        total_toggles += toggles
        energy = _instance_energy(instance, library, toggles, cycles, rc)
        if rc is not None:
            wire_total += (
                rc.switch_energy(instance.output, library.vdd)
                * toggles
                / max(1, cycles)
            )
        if instance.cell in SEQUENTIAL_CELLS:
            sequential += energy
        else:
            combinational += energy
    gate_count = max(1, len(netlist.instances))
    observed_activity = total_toggles / (max(1, cycles) * gate_count)
    return PowerReport(
        energy_per_cycle=combinational + sequential,
        combinational_energy=combinational,
        sequential_energy=sequential,
        activity=observed_activity,
        static_only_cells=static_only,
        wire_energy=wire_total,
    )


@dataclass(frozen=True)
class AttributedPowerReport:
    """Measured energy attributed per module and per cell type.

    Attributes:
        total: The matching :func:`measured_power_report` (identical
            floats -- both are computed from the same per-instance
            energy terms in the same order).
        by_module: Per-cycle energy per module label (see
            :func:`repro.netlist.probe.module_map`), ordered so a
            plain ``sum`` of the values reproduces
            ``total.energy_per_cycle`` bit-exactly.
        by_cell: Per-cycle energy per library cell type, with the
            same exact-sum ordering.
        toggles_by_module: Raw toggle counts per module (integers --
            conserved exactly by construction).
        static_only_cells: Instances with zero measured toggles.
    """

    total: PowerReport
    by_module: dict[str, float]
    by_cell: dict[str, float]
    toggles_by_module: dict[str, int]
    static_only_cells: int

    def conservation_error(self) -> tuple[float, float]:
        """``(module, cell)`` residuals vs the total; both must be 0.0.

        Summing either attribution dict's values *in iteration order*
        reproduces the measured total exactly (the smallest bucket is
        stored last as ``total - sum(others)``; Sterbenz's lemma makes
        that subtraction, and the final re-addition, exact).
        """
        total = self.total.energy_per_cycle
        return (
            sum(self.by_module.values()) - total,
            sum(self.by_cell.values()) - total,
        )


def _fold_residual(buckets: dict[str, float], total: float) -> dict[str, float]:
    """Order ``buckets`` so summing the values reproduces ``total`` exactly.

    Different groupings of the same float terms can disagree with the
    grand total by a few ulps.  The bucket with the smallest raw value
    (ties by name) is re-derived as ``total - sum(others)`` and stored
    last: its true share is at most ``total / 2``, so by Sterbenz's
    lemma the subtraction is exact and ``sum(others) + (total -
    sum(others))`` lands back on ``total`` bit-for-bit.  The
    perturbation is bounded by the grouping residual (ulps).
    """
    if not buckets:
        return {}
    if len(buckets) == 1:
        return {name: total for name in buckets}
    remainder = min(buckets, key=lambda name: (buckets[name], name))
    ordered: dict[str, float] = {}
    others_sum = 0.0
    for name in sorted(buckets):
        if name != remainder:
            ordered[name] = buckets[name]
            others_sum += buckets[name]
    ordered[remainder] = total - others_sum
    return ordered


def attributed_power_report(
    netlist: Netlist,
    library: CellLibrary,
    toggles_per_cell: Mapping[int, int],
    cycles: int,
    modules: "list[str] | None" = None,
    rc: RCAnnotation | None = None,
) -> AttributedPowerReport:
    """Roll measured toggles up into per-module / per-cell-type energy.

    Args:
        netlist: The simulated design.
        library: Technology supplying per-cell energies.
        toggles_per_cell: Output-toggle count per instance index, as
            produced by the gate-level simulator.
        cycles: Number of simulated cycles the counts cover.
        modules: Optional per-instance module labels (defaults to
            :func:`repro.netlist.probe.module_map`).
        rc: Optional placement-derived wire parasitics; each net's
            switched wire energy is attributed to its driving
            instance's module and cell type, and conservation stays
            bit-exact.

    The returned report's ``total`` is the exact
    :func:`measured_power_report` for the same inputs, and both
    attribution dicts sum bit-exactly to its ``energy_per_cycle``
    (see :meth:`AttributedPowerReport.conservation_error`).
    """
    with _obs_span(
        "power_attributed", design=netlist.name, technology=library.name
    ):
        _ATTRIBUTED_REPORTS.inc()
        if modules is None:
            from repro.netlist.probe import module_map

            modules = module_map(netlist)
        total = _measured_power_report(
            netlist, library, toggles_per_cell, cycles, rc
        )
        by_module: dict[str, float] = {}
        by_cell: dict[str, float] = {}
        toggles_by_module: dict[str, int] = {}
        for index, instance in enumerate(netlist.instances):
            toggles = toggles_per_cell.get(index, 0)
            energy = _instance_energy(instance, library, toggles, cycles, rc)
            module = modules[index]
            by_module[module] = by_module.get(module, 0.0) + energy
            by_cell[instance.cell] = by_cell.get(instance.cell, 0.0) + energy
            toggles_by_module[module] = toggles_by_module.get(module, 0) + toggles
        return AttributedPowerReport(
            total=total,
            by_module=_fold_residual(by_module, total.energy_per_cycle),
            by_cell=_fold_residual(by_cell, total.energy_per_cycle),
            toggles_by_module=dict(sorted(toggles_by_module.items())),
            static_only_cells=total.static_only_cells,
        )
