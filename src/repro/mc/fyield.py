"""Functional yield under sampled device defects, on the real netlist.

``repro.pdk.variation.functional_yield`` answers the analytic question
-- with per-device yield ``y`` and ``n`` devices, ``y^n`` of printed
units are defect-*free*.  This module answers the question the paper's
cost argument actually needs: what fraction of printed units *runs the
application correctly*?  Those differ because a defect the program
never exercises does not break the unit -- exactly the blind spot
:mod:`repro.coregen.fault_test` measures from the other side -- so
application-level yield sits above ``y^n``.

Per printed unit, each cell instance fails independently with
probability ``1 - y^devices(cell)`` (its transistor + resistor count
from the library); a failed cell's output is stuck at a coin-flip
value.  Sampling uses the stream-split scheme of
:mod:`repro.mc.sampling` (domain ``"defects"``: cell ``k`` owns
substream ``k``, unit ``i`` consumes draw ``i``), so a unit's defect
set depends only on ``(seed, cell, unit)`` -- shard-invariant like the
timing samples, with a scalar reference path
(:func:`unit_defects`) the vectorized sampler is tested against.

Defect-free units work by definition and skip simulation entirely --
at realistic device yields that is most of the fleet, so the simulated
work scales with the *defective* population.  Defective units are
lane-packed (one unit per lane, all of its stuck-at faults forced at
once) through the campaign machinery of
:mod:`repro.coregen.fault_test` and compared against the golden
signature: equal signature = working unit, divergence or a wedged
simulation = broken unit.  The packing (``lane_signatures``) and the
wedge bisection (``safe_signatures``, :data:`WEDGED`) are the fault
campaign's own, bound here for the yield engine.
"""

from __future__ import annotations

import numpy as np

from repro.coregen.fault_test import WEDGED, lane_signatures, safe_signatures
from repro.errors import PDKError
from repro.netlist.core import Netlist
from repro.netlist.faults import StuckAtFault
from repro.pdk.cells import CellLibrary

from repro.mc.sampling import SubstreamSampler

#: Sampler namespace for defect draws.
DEFECT_DOMAIN = "defects"


def defect_probabilities(
    netlist: Netlist, library: CellLibrary, device_yield: float
) -> np.ndarray:
    """Per-instance failure probability ``1 - y^devices``."""
    if not 0.0 < device_yield <= 1.0:
        raise PDKError(f"device yield {device_yield} out of (0, 1]")
    devices = np.array(
        [
            library.cell(i.cell).transistors + library.cell(i.cell).resistors
            for i in netlist.instances
        ],
        dtype=np.float64,
    )
    return 1.0 - device_yield**devices


def sample_defects(
    netlist: Netlist,
    library: CellLibrary,
    device_yield: float,
    lo: int,
    hi: int,
    seed: int,
    block: int = 4096,
) -> dict[int, tuple[StuckAtFault, ...]]:
    """Defect sets of printed units ``[lo, hi)``, vectorized.

    Returns only the *defective* units: ``unit index -> tuple of
    stuck-at faults`` (cell-index order).  Cell ``k`` of unit ``i`` is
    defective iff its uniform draw falls below ``p[k]``, and the stuck
    value is bit 0 of the same sampler word (the uniform only consumes
    bits 11..63), so one draw decides both -- and
    :func:`unit_defects` reproduces any unit exactly.  Defects are
    sparse, so each stuck value is drawn with the scalar
    :meth:`~repro.mc.sampling.SubstreamSampler.bit` rather than a
    whole ``(cells, block)`` bit matrix.
    """
    if hi < lo:
        raise PDKError(f"empty unit range [{lo}, {hi})")
    p = defect_probabilities(netlist, library, device_yield)
    sampler = SubstreamSampler(seed, len(netlist.instances), DEFECT_DOMAIN)
    defects: dict[int, list[StuckAtFault]] = {}
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        mask = sampler.uniforms(start, stop) < p[:, None]
        cell_rows, unit_cols = np.nonzero(mask)
        for k, j in zip(cell_rows.tolist(), unit_cols.tolist()):
            unit = start + j
            defects.setdefault(unit, []).append(
                StuckAtFault(instance_index=k, stuck_value=sampler.bit(k, unit))
            )
    return {unit: tuple(faults) for unit, faults in defects.items()}


def unit_defects(
    netlist: Netlist,
    library: CellLibrary,
    device_yield: float,
    unit: int,
    seed: int,
) -> tuple[StuckAtFault, ...]:
    """Scalar reference path: one unit's defect set, draw by draw."""
    p = defect_probabilities(netlist, library, device_yield)
    sampler = SubstreamSampler(seed, len(netlist.instances), DEFECT_DOMAIN)
    faults = []
    for k in range(len(netlist.instances)):
        if sampler.uniform(k, unit) < p[k]:
            faults.append(
                StuckAtFault(instance_index=k, stuck_value=sampler.bit(k, unit))
            )
    return tuple(faults)
