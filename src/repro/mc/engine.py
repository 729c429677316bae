"""Fleet-scale Monte-Carlo yield campaigns: sample, shard, merge.

One campaign prints a virtual fleet of ``N`` units of a core
configuration and reports what a print run would actually deliver:

* **fmax distribution** -- vectorized variation-aware timing
  (:mod:`repro.mc.timing`) gives every unit's critical delay; the
  report carries nominal fmax plus fleet quantiles.
* **Functional yield** -- sampled device defects are lane-packed
  through the real netlist (:mod:`repro.mc.fyield`); a unit *works*
  when the application's architectural signature matches the healthy
  core, so the measured yield sits above the analytic defect-free
  probability ``y^n`` by exactly the undetected-fault margin.
* **Economics** -- printed area per working unit, and battery
  lifetime quantiles (lifetime is linear in critical delay at fixed
  duty, so fleet delay quantiles map straight onto lifetime ones).

Sharding: units are split into fixed ``[lo, hi)`` blocks of
``spec.block`` and fanned across :func:`repro.exec.parallel_map`
workers with a warm initializer that builds the per-core context
(netlist, program, golden signature) once per worker.  Every sample is
a pure function of ``(seed, cell, unit)`` and shard summaries are
mergeable :class:`~repro.mc.sketch.QuantileSketch` instances folded in
submission order, so the merged report is **bit-identical for any
``--jobs``** -- the shard geometry depends only on ``spec.block``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

from repro import obs
from repro.coregen.config import CoreConfig
from repro.coregen.fault_test import golden_signature, prepare_context
from repro.dse.sweep import evaluate_design
from repro.exec import parallel_map
from repro.netlist.stats import area_report
from repro.pdk import canonical_technology, technology_library
from repro.power.battery import battery_by_name
from repro.programs import build_benchmark
from repro.sim.machine import Machine
from repro.units import to_hours

from repro.mc.fyield import WEDGED, sample_defects, safe_signatures
from repro.mc.sketch import QuantileSketch
from repro.mc.timing import DEFAULT_BLOCK, nominal_delay, sample_delays

#: Defective units lane-packed per numpy simulation pass.
DEFAULT_LANES = 1024

#: Fleet quantiles reported for fmax and lifetime.
REPORT_QUANTILES = (0.01, 0.05, 0.50, 0.95, 0.99)

#: Normal z for the 95% Wilson interval on functional yield.
_WILSON_Z = 1.96

_INSTANCE_RATE = obs.histogram("mc.instances.per_second")
_SHARDS = obs.counter("mc.shards")


@dataclass(frozen=True)
class YieldSpec:
    """Everything that determines a campaign except fleet size and jobs.

    Value-typed and hashable on purpose: two equal specs must produce
    bit-identical fleets.  Workers memoize their prepared context
    (program, campaign, golden signature) keyed on ``config``,
    ``program_name`` and ``program_width`` only -- the fields it
    depends on -- so campaigns that differ in seed, technology, sigma
    or device yield reuse it.

    Attributes:
        config: Core configuration to print.
        technology: ``"EGFET"`` or ``"CNT"`` (aliases accepted).
        program_name: Benchmark run as the functional test.
        program_width: Benchmark kernel width.
        sigma: Lognormal delay-variation sigma.
        device_yield: Per printed device (transistor/resistor) yield.
        seed: Root seed of every sampler substream.
        lanes: Defective units simulated per packed pass.
        block: Units per shard (and per timing block) -- fixes the
            shard geometry independently of worker count.
        duty: Duty fraction for battery-lifetime numbers.
        battery_name: Printed battery (partial name match).
    """

    config: CoreConfig
    technology: str = "EGFET"
    program_name: str = "mult"
    program_width: int = 8
    sigma: float = 0.2
    device_yield: float = 0.9999
    seed: int = 0xBEEF
    lanes: int = DEFAULT_LANES
    block: int = DEFAULT_BLOCK
    duty: float = 0.01
    battery_name: str = "Molex"


@dataclass
class _SpecContext:
    """Per-core invariants a worker prepares once (then per-chunk reuse)."""

    program: object
    campaign: object  # fault_test campaign context (netlist, ROM, ...)
    cycles: int
    golden: tuple


# One-slot context memo, mirroring fault_test's worker memo: every
# shard of a campaign shares the core and program, so each worker
# elaborates the core and runs the golden reference exactly once, and
# back-to-back campaigns on one core (other seed, technology, sigma or
# device yield) skip it entirely.
_WORKER_CONTEXT: tuple[tuple, _SpecContext] | None = None


def _spec_context(spec: YieldSpec) -> _SpecContext:
    global _WORKER_CONTEXT
    key = (spec.config, spec.program_name, spec.program_width)
    if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != key:
        program = build_benchmark(
            spec.program_name,
            spec.program_width,
            spec.config.datawidth,
            num_bars=spec.config.num_bars,
        )
        machine = Machine(program, num_bars=spec.config.num_bars)
        machine.run()
        cycles = machine.stats.instructions
        context = _SpecContext(
            program=program,
            campaign=prepare_context(program, spec.config),
            cycles=cycles,
            golden=golden_signature(program, spec.config, cycles),
        )
        _WORKER_CONTEXT = (key, context)
    return _WORKER_CONTEXT[1]


def _run_shard(spec: YieldSpec, shard: tuple[int, int]) -> dict:
    """One unit block: timing sketch + defect simulation tallies."""
    lo, hi = shard
    context = _spec_context(spec)
    library = technology_library(spec.technology)
    netlist = context.campaign.netlist
    delays = sample_delays(
        netlist, library, spec.sigma, lo, hi, spec.seed, block=spec.block
    )
    sketch = QuantileSketch()
    sketch.add_array(delays)

    defects = sample_defects(
        netlist, library, spec.device_yield, lo, hi, spec.seed,
        block=spec.block,
    )
    units = sorted(defects)
    working_defective = 0
    wedged = 0
    for start in range(0, len(units), spec.lanes):
        batch = units[start : start + spec.lanes]
        signatures = safe_signatures(
            context.program,
            spec.config,
            context.cycles,
            [defects[unit] for unit in batch],
            context.campaign,
        )
        for signature in signatures:
            if signature == WEDGED:
                wedged += 1
            elif signature == context.golden:
                working_defective += 1
    return {
        "sketch": sketch.to_dict(),
        "units": hi - lo,
        "defective": len(units),
        "working_defective": working_defective,
        "wedged": wedged,
    }


def _wilson_interval(successes: int, n: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    margin = (
        z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


@dataclass(frozen=True)
class YieldReport:
    """Merged result of one fleet campaign.

    Attributes:
        design / technology / program: Campaign identity.
        instances: Fleet size sampled.
        seed / sigma / device_yield: Sampling parameters.
        nominal_fmax: 1 / variation-free critical delay (Hz): the
            STA fmax of the core.
        mean_delay: Fleet mean critical delay (s), exact.
        fmax_quantiles: ``q -> Hz``; the fraction ``q`` of units is
            *slower* than this clock (``fmax_q(p) = 1 / delay_q(1-p)``).
        devices: Printed device count (transistors + resistors).
        analytic_yield: Defect-free probability ``y^devices``.
        defective / wedged / working_defective: Defect tallies;
            ``working_defective`` units carry defects the program never
            exposes -- they ship.
        functional_yield: Working fraction (defect-free + undetected).
        yield_ci: 95% Wilson interval on ``functional_yield``.
        area / cost_per_working_unit: Printed area economics (m^2).
        battery / duty: Lifetime scenario.
        lifetime_quantiles: ``q -> hours`` (linear in delay quantiles).
        instances_per_second / wall_seconds / shards / jobs: Throughput.
        delay_sketch: Merged delay sketch (serialized) for re-querying.
    """

    design: str
    technology: str
    program: str
    instances: int
    seed: int
    sigma: float
    device_yield: float
    nominal_fmax: float
    mean_delay: float
    fmax_quantiles: dict
    devices: int
    analytic_yield: float
    defective: int
    wedged: int
    working_defective: int
    functional_yield: float
    yield_ci: tuple
    area: float
    cost_per_working_unit: float
    battery: str
    duty: float
    lifetime_quantiles: dict
    instances_per_second: float
    wall_seconds: float
    shards: int
    jobs: int
    delay_sketch: dict

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "technology": self.technology,
            "program": self.program,
            "instances": self.instances,
            "seed": self.seed,
            "sigma": self.sigma,
            "device_yield": self.device_yield,
            "nominal_fmax": self.nominal_fmax,
            "mean_delay": self.mean_delay,
            "fmax_quantiles": {str(q): v for q, v in self.fmax_quantiles.items()},
            "devices": self.devices,
            "analytic_yield": self.analytic_yield,
            "defective": self.defective,
            "wedged": self.wedged,
            "working_defective": self.working_defective,
            "functional_yield": self.functional_yield,
            "yield_ci": list(self.yield_ci),
            "area": self.area,
            "cost_per_working_unit": self.cost_per_working_unit,
            "battery": self.battery,
            "duty": self.duty,
            "lifetime_quantiles": {
                str(q): v for q, v in self.lifetime_quantiles.items()
            },
            "instances_per_second": self.instances_per_second,
            "wall_seconds": self.wall_seconds,
            "shards": self.shards,
            "jobs": self.jobs,
            "delay_sketch": self.delay_sketch,
        }

    def render(self) -> str:
        lo, hi = self.yield_ci
        lines = [
            f"yield[{self.design} @ {self.technology}, {self.program}] "
            f"{self.instances} units, seed 0x{self.seed:X}",
            f"  timing   : nominal {self.nominal_fmax:.1f} Hz, "
            f"fmax p05 {self.fmax_quantiles[0.05]:.1f} Hz, "
            f"p50 {self.fmax_quantiles[0.5]:.1f} Hz, "
            f"p95 {self.fmax_quantiles[0.95]:.1f} Hz (sigma {self.sigma})",
            f"  yield    : functional {self.functional_yield:.4f} "
            f"[{lo:.4f}, {hi:.4f}] vs analytic {self.analytic_yield:.4f} "
            f"(y={self.device_yield} over {self.devices} devices; "
            f"{self.defective} defective, {self.working_defective} of them "
            f"ship, {self.wedged} wedged)",
            f"  economics: {self.cost_per_working_unit * 1e4:.2f} cm2 of "
            f"print per working unit "
            f"({self.area * 1e4:.2f} cm2 per print)",
            f"  lifetime : p05 {self.lifetime_quantiles[0.05]:.1f} h, "
            f"p50 {self.lifetime_quantiles[0.5]:.1f} h on {self.battery} "
            f"at {self.duty:.0%} duty",
            f"  engine   : {self.instances_per_second:,.0f} units/s over "
            f"{self.shards} shards, jobs={self.jobs}, "
            f"{self.wall_seconds:.2f} s",
        ]
        return "\n".join(lines)


def run_yield_campaign(
    spec: YieldSpec, instances: int, jobs: int | None = None
) -> YieldReport:
    """Print a virtual fleet of ``instances`` units and measure it.

    Bit-identical for any ``jobs``: shard boundaries come from
    ``spec.block`` alone, shard sketches merge by integer bucket
    addition in submission order, and every sample depends only on
    ``(spec.seed, cell, unit)``.
    """
    if instances < 1:
        raise ValueError(f"need at least one instance, got {instances}")
    technology = canonical_technology(spec.technology)
    with obs.span(
        "yield_campaign",
        design=spec.config.name,
        technology=technology,
        program=spec.program_name,
    ) as sp:
        started = time.perf_counter()
        context = _spec_context(spec)
        shards = [
            (lo, min(lo + spec.block, instances))
            for lo in range(0, instances, spec.block)
        ]
        results = parallel_map(
            partial(_run_shard, spec),
            shards,
            jobs=jobs,
            label=f"yield[{spec.config.name}]",
            warm=partial(_spec_context, spec),
        )

        merged = QuantileSketch()
        defective = working_defective = wedged = 0
        for result in results:
            merged.merge(QuantileSketch.from_dict(result["sketch"]))
            defective += result["defective"]
            working_defective += result["working_defective"]
            wedged += result["wedged"]
        working = (instances - defective) + working_defective
        functional = working / instances

        netlist = context.campaign.netlist
        library = technology_library(technology)
        area = area_report(netlist, library)
        devices = area.transistors + area.resistors
        point = evaluate_design(spec.config, technology)
        energy_per_cycle = point.power_at_fmax / point.fmax
        battery = battery_by_name(spec.battery_name)
        # Lifetime at duty d: battery energy / (energy_per_cycle * fmax
        # * d) -- linear in delay, so fleet delay quantiles transform
        # directly (slow units clock lower and live longer).
        hours_per_delay = to_hours(
            battery.energy / (energy_per_cycle * spec.duty)
        )
        fmax_quantiles = {
            q: 1.0 / merged.quantile(1.0 - q) for q in REPORT_QUANTILES
        }
        lifetime_quantiles = {
            q: hours_per_delay * merged.quantile(q) for q in REPORT_QUANTILES
        }

        elapsed = time.perf_counter() - started
        rate = instances / elapsed if elapsed > 0 else 0.0
        _INSTANCE_RATE.observe(rate)
        _SHARDS.inc(len(shards))
        sp.note(instances=instances, working=working, shards=len(shards))

        from repro.exec.engine import resolve_jobs

        return YieldReport(
            design=spec.config.name,
            technology=technology,
            program=context.program.name,
            instances=instances,
            seed=spec.seed,
            sigma=spec.sigma,
            device_yield=spec.device_yield,
            nominal_fmax=1.0 / nominal_delay(netlist, library),
            mean_delay=merged.mean,
            fmax_quantiles=fmax_quantiles,
            devices=devices,
            analytic_yield=spec.device_yield**devices,
            defective=defective,
            wedged=wedged,
            working_defective=working_defective,
            functional_yield=functional,
            yield_ci=_wilson_interval(working, instances),
            area=point.area,
            cost_per_working_unit=(
                point.area / functional if functional > 0 else float("inf")
            ),
            battery=battery.name,
            duty=spec.duty,
            lifetime_quantiles=lifetime_quantiles,
            instances_per_second=rate,
            wall_seconds=elapsed,
            shards=len(shards),
            jobs=resolve_jobs(jobs),
            delay_sketch=merged.to_dict(),
        )
