"""Process variation and functional-yield models for printed logic.

Printed devices vary enormously die-to-die (the EGFET literature the
paper builds on reports sigma(Vth) of tens of millivolts and measured
device yields of 90-99%, Section 3.1).  Two consequences for
microprocessors, both quantified here:

* **Timing spread** -- Monte-Carlo STA with lognormal per-instance
  delay multipliers gives the fmax distribution and a yield-aware
  clock (the frequency met by e.g. 95% of printed units; the fleet
  quantiles of :class:`~repro.mc.engine.YieldReport`).
* **Functional yield** -- with per-device yield ``y`` a design of
  ``n`` printed devices works with probability ``y^n``; printed
  microprocessors must therefore be *small*, reinforcing the paper's
  minimal-gate-count ISA argument from a different direction.

Randomness is the deterministic **stream-split counter scheme** of
:mod:`repro.mc.sampling`: cell instance ``k`` owns substream ``k``
(domain ``"timing"``), and printed unit ``t`` consumes draw index
``t`` of every substream.  A sample is a pure hash of ``(seed, cell,
unit)`` -- *not* a position in one sequential stream -- so unit ``t``
gets identical factors whether a campaign runs 10 trials or 10^6,
serial or sharded.  :func:`monte_carlo_timing` below is the *scalar
reference path* for that scheme; the vectorized fleet engine
(:mod:`repro.mc.timing`) produces bit-identical delays at equal unit
indices, and ``tests/mc/test_timing.py`` asserts it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PDKError
from repro.netlist.core import Netlist, SEQUENTIAL_CELLS
from repro.netlist.nsim import topological_order
from repro.netlist.sta import INVERTING_CELLS, NON_MONOTONE_CELLS, cell_delays
from repro.pdk.cells import CellLibrary

#: Measured EGFET per-device yield range (Section 3.1).
EGFET_DEVICE_YIELD_RANGE = (0.90, 0.99)


def monte_carlo_timing(
    netlist: Netlist,
    library: CellLibrary,
    sigma: float = 0.2,
    trials: int = 64,
    seed: int = 0xBEEF,
) -> tuple[float, ...]:
    """Sample the critical-path delay (seconds) of ``trials`` units.

    Each cell instance's derated rise and fall delays
    (:func:`repro.netlist.sta.cell_delays`) are scaled by one
    independent lognormal factor ``exp(sigma * N(0,1))`` per trial and
    propagated polarity-aware, as STA does, so ``sigma=0`` gives STA's
    critical delay in every trial.

    This is the **scalar reference path** of the Monte-Carlo engine:
    trial ``t`` draws from each cell substream at index ``t`` (the
    stream-split scheme documented in :mod:`repro.mc.sampling`), so
    trial ``t``'s factors are a pure function of ``(seed, cell, t)``
    -- independent of the trial count and of any shard boundary -- and
    ``repro.mc.timing.sample_delays(netlist, library, sigma, 0,
    trials, seed)`` returns exactly these samples.  The walk is a
    plain per-instance loop in topological order, independent of the
    vectorized arrival pass it checks; the float transform routes
    through numpy scalar ufuncs (not ``math.*``) so scalar and
    vectorized samples are bit-identical.
    """
    if sigma < 0:
        raise PDKError("sigma must be non-negative")
    from repro.mc.sampling import SubstreamSampler
    from repro.mc.timing import TIMING_DOMAIN

    order = topological_order(netlist)
    delays = cell_delays(netlist, library).tolist()
    index_of = {id(instance): k for k, instance in enumerate(netlist.instances)}
    flops = [i for i in netlist.instances if i.cell in SEQUENTIAL_CELLS]
    endpoints = [net for flop in flops for net in flop.inputs]
    for bus in netlist.outputs.values():
        endpoints.extend(bus)
    sampler = SubstreamSampler(seed, len(netlist.instances), TIMING_DOMAIN)
    sigma64 = np.float64(sigma)

    samples = []
    for trial in range(trials):
        factors = [
            float(np.exp(sigma64 * sampler.normal(k, trial)))
            for k in range(len(netlist.instances))
        ]
        arrival: dict[int, tuple[float, float]] = {}
        for flop in flops:
            k = index_of[id(flop)]
            rise, fall = delays[k]
            arrival[flop.output] = (rise * factors[k], fall * factors[k])
        for instance in order:
            k = index_of[id(instance)]
            ins = [arrival.get(net, (0.0, 0.0)) for net in instance.inputs]
            rise_in = max(rise for rise, _ in ins)
            fall_in = max(fall for _, fall in ins)
            if instance.cell in NON_MONOTONE_CELLS:
                rise_in = fall_in = max(rise_in, fall_in)
            elif instance.cell in INVERTING_CELLS:
                rise_in, fall_in = fall_in, rise_in
            rise, fall = delays[k]
            arrival[instance.output] = (
                rise_in + rise * factors[k],
                fall_in + fall * factors[k],
            )
        samples.append(
            max((max(arrival.get(net, (0.0, 0.0))) for net in endpoints), default=0.0)
        )
    return tuple(samples)


def functional_yield(device_count: int, device_yield: float) -> float:
    """Probability that all ``device_count`` printed devices work."""
    if not 0.0 < device_yield <= 1.0:
        raise PDKError(f"device yield {device_yield} out of (0, 1]")
    return device_yield**device_count


def cost_per_working_unit(area: float, design_yield: float) -> float:
    """Expected printed area per *working* unit (area / yield).

    With maskless printing, a failed unit costs only its materials and
    print time -- both area-proportional -- so area/yield is the right
    figure of merit for comparing core sizes under yield.
    """
    if design_yield <= 0:
        return float("inf")
    return area / design_yield


def required_device_yield(device_count: int, target_yield: float) -> float:
    """Per-device yield needed for a design-level target."""
    if not 0.0 < target_yield < 1.0:
        raise PDKError(f"target yield {target_yield} out of (0, 1)")
    return target_yield ** (1.0 / device_count)
