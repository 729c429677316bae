"""Vectorized variation-aware timing: one STA pass, all units at once.

``repro.pdk.variation.monte_carlo_timing`` walks the netlist once per
trial in pure Python -- fine for 24 trials, hopeless for a printed
fleet of 10^5-10^6 units.  This module keeps that walk as the *scalar
reference* and adds the production path: per-cell lognormal delay
factors sampled as a ``(cells, units)`` matrix
(:class:`~repro.mc.sampling.SubstreamSampler`, domain ``"timing"``),
propagated through the levelized row layout already built for the
numpy simulation kernels (:func:`repro.netlist.nsim.levelized_layout`)
-- one vectorized ``maximum``/``add`` pass per logic level computes
every unit's arrival front simultaneously.

Bit-exact against the scalar walk by construction: both paths apply
the same IEEE-754 operations per element (same sample words, same
``exp``/``mul``/``max``/``add`` order), so
``sample_delays(..., lo=0, hi=T)`` equals the ``trials=T`` scalar
sample vector *exactly*, asserted across the sweep by
``tests/mc/test_timing.py``.

The per-(netlist, library) geometry -- level gather indices, base
delays, endpoint rows -- is prepared once and memoized on the netlist
(``mc.timing.cache_hits`` / ``mc.timing.cache_misses``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PDKError
from repro.netlist.core import Netlist, SEQUENTIAL_CELLS
from repro.netlist.nsim import levelized_layout
from repro.obs.metrics import counter as _obs_counter
from repro.pdk.cells import CellLibrary

from repro.mc.sampling import SubstreamSampler

#: Sampler namespace for delay-factor draws.
TIMING_DOMAIN = "timing"

#: Units processed per arrival-matrix pass.  Bounds peak memory at
#: about ``(rows + cells + 3 * widest_level) * block * 8`` bytes -- the
#: factor and arrival matrices plus one level's gathers; 15-52 MiB on
#: p1_{4..32}_2 by tracemalloc -- while keeping each ufunc call long
#: enough to amortize dispatch.
DEFAULT_BLOCK = 2048

_KERNEL_HITS = _obs_counter("mc.timing.cache_hits")
_KERNEL_MISSES = _obs_counter("mc.timing.cache_misses")


@dataclass(frozen=True)
class _Level:
    """Gather geometry for one logic level of the arrival pass."""

    lo: int  # output row range [lo, hi) -- contiguous by layout
    hi: int
    in1: np.ndarray  # first-input row per instance
    in2: np.ndarray  # second-input row (== in1 for 1-input cells)
    base: np.ndarray  # worst-edge base delay per instance
    streams: np.ndarray  # sampler stream (instance index) per instance


@dataclass(frozen=True)
class TimingKernel:
    """Prepared arrival-propagation geometry for one (netlist, library).

    Attributes:
        rows: Arrival-matrix row count (== net count).
        cells: Instance count (sampler stream count).
        levels: Per-level gather geometry, dependency order.
        flop_rows: Q-output rows seeded with the clk-to-Q launch.
        flop_base: Worst-edge base delay per sequential instance.
        flop_streams: Sampler stream per sequential instance.
        endpoint_rows: Rows maximized into the critical delay (flop
            inputs plus primary output nets).
    """

    rows: int
    cells: int
    levels: tuple[_Level, ...]
    flop_rows: np.ndarray
    flop_base: np.ndarray
    flop_streams: np.ndarray
    endpoint_rows: np.ndarray


def timing_kernel(netlist: Netlist, library: CellLibrary) -> TimingKernel:
    """The memoized :class:`TimingKernel` for ``netlist`` + ``library``."""
    cache: dict = getattr(netlist, "_mc_timing", None) or {}
    kernel = cache.get(library.name)
    if kernel is not None:
        _KERNEL_HITS.inc()
        return kernel
    _KERNEL_MISSES.inc()

    layout, levels = levelized_layout(netlist)
    row_of = layout.row_of
    index_of = {id(inst): k for k, inst in enumerate(netlist.instances)}
    base_delay = [library.cell(i.cell).worst_delay for i in netlist.instances]

    level_geometry = []
    for instances in levels:
        if not instances:
            continue
        lo = row_of[instances[0].output]
        level_geometry.append(
            _Level(
                lo=lo,
                hi=lo + len(instances),
                in1=np.array(
                    [row_of[i.inputs[0]] for i in instances], dtype=np.intp
                ),
                in2=np.array(
                    [
                        row_of[i.inputs[1] if len(i.inputs) > 1 else i.inputs[0]]
                        for i in instances
                    ],
                    dtype=np.intp,
                ),
                base=np.array(
                    [base_delay[index_of[id(i)]] for i in instances],
                    dtype=np.float64,
                ),
                streams=np.array(
                    [index_of[id(i)] for i in instances], dtype=np.intp
                ),
            )
        )

    flops = [i for i in netlist.instances if i.cell in SEQUENTIAL_CELLS]
    endpoint_nets: set[int] = set()
    for flop in flops:
        endpoint_nets.update(flop.inputs)
    for bus in netlist.outputs.values():
        endpoint_nets.update(bus.nets)

    kernel = TimingKernel(
        rows=layout.rows,
        cells=len(netlist.instances),
        levels=tuple(level_geometry),
        flop_rows=np.array([row_of[f.output] for f in flops], dtype=np.intp),
        flop_base=np.array(
            [base_delay[index_of[id(f)]] for f in flops], dtype=np.float64
        ),
        flop_streams=np.array(
            [index_of[id(f)] for f in flops], dtype=np.intp
        ),
        endpoint_rows=np.array(
            sorted(row_of[net] for net in endpoint_nets), dtype=np.intp
        ),
    )
    cache[library.name] = kernel
    netlist._mc_timing = cache
    return kernel


def _propagate(kernel: TimingKernel, factors: np.ndarray) -> np.ndarray:
    """Critical delay per unit for one ``(cells, n)`` factor block."""
    n = factors.shape[1]
    arrival = np.zeros((kernel.rows, n), dtype=np.float64)
    if kernel.flop_rows.size:
        arrival[kernel.flop_rows] = (
            kernel.flop_base[:, None] * factors[kernel.flop_streams]
        )
    for level in kernel.levels:
        arrival[level.lo : level.hi] = (
            np.maximum(arrival[level.in1], arrival[level.in2])
            + level.base[:, None] * factors[level.streams]
        )
    if not kernel.endpoint_rows.size:
        return np.zeros(n, dtype=np.float64)
    return arrival[kernel.endpoint_rows].max(axis=0)


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
    """
    if sigma < 0:
        raise PDKError("sigma must be non-negative")
    if hi < lo:
        raise PDKError(f"empty unit range [{lo}, {hi})")
    kernel = timing_kernel(netlist, library)
    sampler = SubstreamSampler(seed, kernel.cells, TIMING_DOMAIN)
    out = np.empty(hi - lo, dtype=np.float64)
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        factors = sampler.normals(start, stop)
        factors *= sigma
        np.exp(factors, out=factors)
        out[start - lo : stop - lo] = _propagate(kernel, factors)
    return out


def nominal_delay(netlist: Netlist, library: CellLibrary) -> float:
    """Critical delay with every factor pinned to 1 (sigma = 0)."""
    kernel = timing_kernel(netlist, library)
    factors = np.ones((kernel.cells, 1), dtype=np.float64)
    return float(_propagate(kernel, factors)[0])
