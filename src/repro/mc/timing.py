"""Vectorized variation-aware timing: one STA pass, all units at once.

``repro.pdk.variation.monte_carlo_timing`` walks the netlist once per
trial in pure Python -- fine for 24 trials, hopeless for a printed
fleet of 10^5-10^6 units.  This module keeps that walk as the *scalar
reference* and adds the production path: per-cell lognormal delay
factors sampled as a ``(cells, units)`` matrix
(:class:`~repro.mc.sampling.SubstreamSampler`, domain ``"timing"``)
and pushed through the arrival pass of STA itself
(:func:`repro.netlist.sta.propagate`), one column per unit.  The fleet
is therefore polarity-aware and load-derated like STA: one factor per
cell scales both its rise and its fall delay, and at sigma 0 every
factor is 1.0, so :func:`nominal_delay` equals
``timing_report(netlist, library).critical_path_delay`` exactly.

Bit-exact against the scalar walk by construction: both paths apply
the same IEEE-754 operations per element (same sample words, same
``exp``/``mul``/``max``/``add`` order), so
``sample_delays(..., lo=0, hi=T)`` equals the ``trials=T`` scalar
sample vector *exactly*, asserted across the sweep by
``tests/mc/test_timing.py``.

The per-(netlist, library) arrival plan and derated delays are
prepared once and memoized on the netlist (``mc.timing.cache_hits`` /
``mc.timing.cache_misses``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PDKError
from repro.netlist.core import Netlist
from repro.netlist.sta import ArrivalPlan, arrival_plan, cell_delays, propagate
from repro.obs.metrics import counter as _obs_counter
from repro.pdk.cells import CellLibrary

from repro.mc.sampling import SubstreamSampler

#: Sampler namespace for delay-factor draws.
TIMING_DOMAIN = "timing"

#: Units per campaign shard (:class:`~repro.mc.engine.YieldSpec`
#: ``block``), so per :func:`sample_delays` call in a campaign.  A call
#: draws and propagates at most :data:`_CHUNK` units at a time, so its
#: peak memory is about ``(cells + 2 * nets + 6 * widest_level) * 512 *
#: 8`` bytes -- the factor block, the two-edge arrival matrix and one
#: level's gathers; 7/9/13/22 MiB on p1_{4,8,16,32}_2 for 2048 units by
#: tracemalloc.
DEFAULT_BLOCK = 2048

#: Units per factor draw and arrival pass: long enough to amortize ufunc
#: dispatch, short enough to keep the two-edge arrival matrix small.
_CHUNK = 512

_KERNEL_HITS = _obs_counter("mc.timing.cache_hits")
_KERNEL_MISSES = _obs_counter("mc.timing.cache_misses")


@dataclass(frozen=True)
class TimingKernel:
    """The timing model prepared for one (netlist, library).

    Attributes:
        plan: The netlist's arrival plan.
        delays: Wire-blind derated delay per arrival-matrix edge row.
        cells: Instance count (sampler stream count).
    """

    plan: ArrivalPlan
    delays: np.ndarray
    cells: int


def timing_kernel(netlist: Netlist, library: CellLibrary) -> TimingKernel:
    """The memoized :class:`TimingKernel` for ``netlist`` + ``library``."""
    cache: dict = getattr(netlist, "_mc_timing", None) or {}
    kernel = cache.get(library.name)
    if kernel is not None:
        _KERNEL_HITS.inc()
        return kernel
    _KERNEL_MISSES.inc()
    plan = arrival_plan(netlist)
    kernel = TimingKernel(
        plan=plan,
        delays=plan.edge_delays(cell_delays(netlist, library)),
        cells=len(netlist.instances),
    )
    cache[library.name] = kernel
    netlist._mc_timing = cache
    return kernel


def sample_delays(
    netlist: Netlist,
    library: CellLibrary,
    sigma: float,
    lo: int,
    hi: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Critical-path delay of printed units ``[lo, hi)``, vectorized.

    Unit ``i``'s per-cell lognormal factors ``exp(sigma * N(0,1))``
    depend only on ``(seed, cell, i)`` -- the stream-split scheme of
    :mod:`repro.mc.sampling` -- so any sub-range reproduces the same
    units regardless of how a campaign was blocked or sharded, and the
    result is bit-identical to the scalar reference walk
    (:func:`repro.pdk.variation.monte_carlo_timing`) at equal indices.
    Each pass draws ``min(block, 512)`` units.
    """
    if sigma < 0:
        raise PDKError("sigma must be non-negative")
    if hi < lo:
        raise PDKError(f"empty unit range [{lo}, {hi})")
    kernel = timing_kernel(netlist, library)
    sampler = SubstreamSampler(seed, kernel.cells, TIMING_DOMAIN)
    out = np.empty(hi - lo, dtype=np.float64)
    step = min(block, _CHUNK)
    arrival = np.zeros((kernel.plan.edge_rows, 0))
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        factors = sampler.normals(start, stop)
        factors *= sigma
        np.exp(factors, out=factors)
        if arrival.shape[1] != stop - start:
            # Port and constant rows stay zero; each pass rewrites the rest.
            arrival = np.zeros((kernel.plan.edge_rows, stop - start))
        out[start - lo : stop - lo] = propagate(
            kernel.plan, kernel.delays, factors, arrival
        )
    return out


def nominal_delay(netlist: Netlist, library: CellLibrary) -> float:
    """Critical delay with every factor pinned to 1 (sigma = 0)."""
    kernel = timing_kernel(netlist, library)
    factors = np.ones((kernel.cells, 1), dtype=np.float64)
    arrival = np.zeros((kernel.plan.edge_rows, 1), dtype=np.float64)
    return float(propagate(kernel.plan, kernel.delays, factors, arrival)[0])
