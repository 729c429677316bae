"""Benchmark: interpreted vs compiled gate-level simulation backends.

Times lock-step co-simulation (the hot loop behind every headline
result: Figure 7/8 verification, fault campaigns, measured-activity
power) on the standard sweep cores with both ``CoSimHarness`` backends
(the interpreter, and the compiled kernel at one bigint lane), plus a
sampled fault campaign with the interpreted and bit-parallel batched
engines, plus the tracked full-stride campaign
(``fault_campaign_numpy``) that races the bigint lane backend against
the vectorized numpy bit-slice backend on every fault site of the
p1_8_2 mult8 core -- the headline the numpy backend must hold:
>100x interpreted and >5x batched, bit-exact detected-fault sets.
The ``yield_engine`` section races the vectorized Monte-Carlo timing
sampler (:mod:`repro.mc.timing`) against the scalar per-trial
reference walk on the same fleet (bit-exact prefix asserted); its
``speedup_vs_scalar`` is gated by the cross-run history sentinel
rather than a fixed floor.  The ``placement_quality`` section places
a sweep cross-section on auto-sized printed fabrics in both
technologies and tracks greedy-vs-annealed HPWL plus the wire-aware
vs wire-blind fmax/energy deltas (:mod:`repro.place`); ``hpwl_m`` and
``improvement_pct`` are sentinel-gated the same way.

The run is emitted through the :mod:`repro.obs` layer: every stage is
a tracing span, and ``BENCH_sim.json`` at the repository root is a
run-report superset (the run-report schema plus ``+bench``) that keeps
the historical top-level keys (``cosim``, ``fault_campaign``,
``headline_speedup_p1_8_2``) alongside stage timings, the metrics
snapshot, and environment/git metadata, so the speedup is tracked
across PRs.  Emission is deterministic (sorted keys, one fixed float
encoding) and ``--compact`` elides the per-span detail so the
checked-in file diffs by changed values, not layout; every emission
also appends one compact record to the cross-run history ledger
(``python -m repro history check`` then gates the headline ratios
against their rolling median/MAD baseline -- see
``docs/OBSERVABILITY.md``).

It also measures the *instrumentation overhead budget*: the p1_8_2
compiled co-simulation (one bigint lane) is timed with the obs switch
off and on, interleaved, and ``--check`` fails the run if enabling the
whole layer costs more than 2%.  (The disabled path is strictly
cheaper than the enabled path -- the hooks share one guard -- so this
bounds disabled-mode overhead too.  The delta against the checked-in
baseline's disabled rate is reported as ``baseline_regression_pct``
but not asserted, since absolute rates are machine-dependent.)

The cost of *enabled* probing -- a full architectural
:class:`~repro.netlist.probe.WaveProbe` plus an
:class:`~repro.netlist.probe.InstructionEnergyProfiler` attached to
the interpreted co-simulation, the only simulator that hosts probes --
is measured the same paired way and recorded as the ``probe_overhead``
section (informational: probing is opt-in, so it has no budget).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sim_backends.py            # full
    PYTHONPATH=src python benchmarks/bench_sim_backends.py --compact  # no spans
    PYTHONPATH=src python benchmarks/bench_sim_backends.py --smoke --check
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro import obs
from repro.coregen.config import CoreConfig
from repro.coregen.cosim import CoSimHarness
from repro.coregen import fault_test
from repro.coregen.fault_test import run_fault_campaign
from repro.dse.sweep import sweep_design_spaces
from repro.eval import evaluate_suite
from repro.exec import clear_caches
from repro.programs import build_benchmark

#: Cores timed for co-simulation throughput (name -> config).
COSIM_CONFIGS = (
    CoreConfig(datawidth=4),
    CoreConfig(datawidth=8),
    CoreConfig(datawidth=8, pipeline_stages=3),
    CoreConfig(datawidth=16),
    CoreConfig(datawidth=32),
)

#: The tracked headline core (also the overhead-budget workload).
HEADLINE = CoreConfig(datawidth=8)

#: Wall-clock floor per measurement, seconds.
MIN_DURATION = 0.25

#: Maximum tolerated slowdown from enabling the obs layer, percent.
OVERHEAD_BUDGET_PCT = 2.0


def _program_for(config: CoreConfig):
    kernel_width = max(8, config.datawidth)
    return build_benchmark("mult", kernel_width, config.datawidth)


def _cosim_rate(
    config: CoreConfig, backend: str, min_duration: float = MIN_DURATION
) -> float:
    """Steady-state co-simulation throughput in cycles/second."""
    program = _program_for(config)
    harness = CoSimHarness(program, config, backend=backend)
    for _ in range(5):  # warm-up (and compile, for the compiled kernel)
        harness.step()
    cycles = 0
    elapsed = 0.0
    chunk = 32
    while elapsed < min_duration:
        start = time.perf_counter()
        for _ in range(chunk):
            harness.step()
        elapsed += time.perf_counter() - start
        cycles += chunk
        chunk = min(4 * chunk, 4096)
    return cycles / elapsed


def bench_cosim(
    configs=COSIM_CONFIGS, min_duration: float = MIN_DURATION
) -> dict:
    """Per-core interpreted vs compiled cycles/second and speedup."""
    results = {}
    for config in configs:
        with obs.span("bench_cosim", design=config.name):
            interpreted = _cosim_rate(config, "interpreted", min_duration)
            compiled = _cosim_rate(config, "compiled", min_duration)
        results[config.name] = {
            "interpreted_cycles_per_s": round(interpreted, 1),
            "compiled_cycles_per_s": round(compiled, 1),
            "speedup": round(compiled / interpreted, 2),
        }
        print(
            f"cosim {config.name:>9}: interpreted {interpreted:8.0f} c/s, "
            f"compiled {compiled:8.0f} c/s, speedup {compiled / interpreted:5.1f}x"
        )
    return results


def bench_fault_campaign(max_faults: int = 40) -> dict:
    """Sampled stuck-at campaign wall time per backend (identical results)."""
    program = build_benchmark("mult", 8, 8)
    results = {}
    reference = None
    for backend in ("interpreted", "batched"):
        with obs.span("bench_fault_campaign", backend=backend):
            start = time.perf_counter()
            campaign = run_fault_campaign(
                program, stride=24, max_faults=max_faults, backend=backend
            )
            elapsed = time.perf_counter() - start
        outcome = (campaign.total, campaign.detected, campaign.undetected_sites)
        if reference is None:
            reference = outcome
        elif outcome != reference:
            raise AssertionError(f"{backend} campaign diverged from interpreted")
        results[backend] = {
            "seconds": round(elapsed, 3),
            "faults": campaign.total,
            "detected": campaign.detected,
        }
        print(
            f"fault campaign [{backend:>11}]: {campaign.total} faults in "
            f"{elapsed:6.2f}s ({campaign.detected} detected)"
        )
    results["batched"]["speedup"] = round(
        results["interpreted"]["seconds"] / max(1e-9, results["batched"]["seconds"]), 2
    )
    return results


#: Floors the numpy campaign headline must hold (``--check``).
NUMPY_VS_INTERPRETED_FLOOR = 100.0
NUMPY_VS_BATCHED_FLOOR = 5.0

#: Tolerated drop of the recorded numpy headline speedup, percent.
NUMPY_REGRESSION_PCT = 10.0


def bench_fault_campaign_numpy(
    stride: int = 1, interpreted_sample: int = 32
) -> dict:
    """The tracked numpy headline: every p1_8_2/mult8 fault site.

    Runs the **full-stride** stuck-at campaign (one fault per instance
    output and polarity, ~1000 sites) on the bigint batched backend
    and the numpy bit-slice backend, asserting the detected-fault sets
    are bit-exact; the interpreted baseline is timed on a
    ``interpreted_sample``-fault sample and extrapolated (running all
    sites interpreted takes minutes -- exactly why this backend
    exists).
    """
    program = build_benchmark("mult", 8, 8)
    results: dict = {}

    with obs.span("bench_fault_campaign_numpy", backend="interpreted"):
        start = time.perf_counter()
        sampled = run_fault_campaign(
            program,
            stride=stride,
            max_faults=interpreted_sample,
            backend="interpreted",
        )
        sampled_elapsed = time.perf_counter() - start
    interpreted_rate = sampled.total / max(1e-9, sampled_elapsed)
    results["interpreted"] = {
        "sampled_faults": sampled.total,
        "faults_per_s": round(interpreted_rate, 1),
    }
    print(
        f"numpy campaign [interpreted]: {sampled.total}-fault sample in "
        f"{sampled_elapsed:6.2f}s ({interpreted_rate:.0f} faults/s)"
    )

    outcomes = {}
    for backend in ("batched", "numpy"):
        # Best of two timed passes: the first also pays compile /
        # cache-load cost, and the minimum filters scheduler jitter
        # out of the ratio the --check floors gate on.
        elapsed = float("inf")
        with obs.span("bench_fault_campaign_numpy", backend=backend):
            for _ in range(2):
                start = time.perf_counter()
                campaign = run_fault_campaign(
                    program, stride=stride, backend=backend
                )
                elapsed = min(elapsed, time.perf_counter() - start)
        outcomes[backend] = (
            campaign.total, campaign.detected, campaign.undetected_sites
        )
        results[backend] = {
            "seconds": round(elapsed, 3),
            "faults": campaign.total,
            "detected": campaign.detected,
            "faults_per_s": round(campaign.total / max(1e-9, elapsed), 1),
        }
        print(
            f"numpy campaign [{backend:>11}]: {campaign.total} faults in "
            f"{elapsed:6.2f}s ({campaign.detected} detected, "
            f"{results[backend]['faults_per_s']:.0f} faults/s)"
        )
    if outcomes["numpy"] != outcomes["batched"]:
        raise AssertionError(
            "numpy campaign diverged from batched (detected-fault sets differ)"
        )

    total = results["numpy"]["faults"]
    interpreted_est = total / interpreted_rate
    results["interpreted"]["estimated_seconds_full"] = round(interpreted_est, 1)
    results["speedup_vs_interpreted"] = round(
        interpreted_est / max(1e-9, results["numpy"]["seconds"]), 1
    )
    results["speedup_vs_batched"] = round(
        results["batched"]["seconds"] / max(1e-9, results["numpy"]["seconds"]), 2
    )
    print(
        f"numpy campaign headline: {results['speedup_vs_interpreted']}x "
        f"interpreted, {results['speedup_vs_batched']}x batched"
    )
    return results


def _numpy_regression(out_path: Path, campaign: dict) -> float | None:
    """Drop of the numpy-vs-batched headline vs baseline, percent.

    The batched ratio is the regression metric because both sides are
    measured in the same process on the same sites; the interpreted
    ratio rides on a small extrapolated sample and is gated only by
    its absolute floor.
    """
    try:
        baseline = json.loads(out_path.read_text())
        before = baseline["fault_campaign_numpy"]["speedup_vs_batched"]
    except (OSError, KeyError, ValueError):
        return None
    now = campaign["speedup_vs_batched"]
    return round(100.0 * (before - now) / before, 2)


#: Worker counts measured by the parallel-scaling section.
SCALING_JOBS = (1, 2, 4)

#: Minimum tolerated jobs=4 combined speedup on a >=4-core machine.
SCALING_FLOOR = 2.5

#: Tolerated serial (jobs=1) slowdown vs the checked-in baseline.
SCALING_REGRESSION_FACTOR = 2.5


def _scaling_round(jobs: int, campaign_stride: int) -> tuple[dict, tuple]:
    """One timed pass of the three fan-out layers at one worker count."""
    program = build_benchmark("dTree", 8, 8)
    # Every round starts memo-cold (but disk-warm) so each jobs value
    # does identical work and the timing isolates execution strategy.
    clear_caches()
    fault_test._WORKER_CONTEXT = None
    timings = {}
    start = time.perf_counter()
    sweep = sweep_design_spaces(("EGFET", "CNT"), jobs=jobs)
    timings["sweep_s"] = time.perf_counter() - start
    start = time.perf_counter()
    campaign = run_fault_campaign(program, stride=campaign_stride, jobs=jobs)
    timings["fault_campaign_s"] = time.perf_counter() - start
    start = time.perf_counter()
    suite = evaluate_suite(jobs=jobs)
    timings["suite_s"] = time.perf_counter() - start
    timings["combined_s"] = sum(timings.values())
    return timings, (sweep, campaign, suite)


def bench_parallel_scaling(
    jobs_list: tuple[int, ...] = SCALING_JOBS, campaign_stride: int = 1
) -> dict:
    """Wall time of the three ``jobs=`` fan-outs at 1/2/4 workers.

    Times the Figure 7 two-technology sweep, a full-stride dTree fault
    campaign, and the Figure 8 suite grid at each worker count, after
    one warm-up pass that populates the on-disk artifact cache.  Every
    parallel round is asserted bit-exact against the ``jobs=1`` round;
    speedups are relative to ``jobs=1`` on the same machine, with
    ``cpu_count`` recorded because scaling saturates at the physical
    core count.
    """
    with obs.span("bench_parallel_scaling"):
        # Warm the artifact cache so round one isn't charged for
        # first-touch elaboration the later rounds get from disk.
        _scaling_round(1, campaign_stride)
        results: dict = {"cpu_count": os.cpu_count(), "jobs": {}}
        reference = None
        for jobs in jobs_list:
            timings, outcome = _scaling_round(jobs, campaign_stride)
            if reference is None:
                reference = outcome
            elif outcome != reference:
                raise AssertionError(
                    f"jobs={jobs} scaling round diverged from jobs=1"
                )
            entry = {key: round(value, 3) for key, value in timings.items()}
            serial = results["jobs"].get("1", entry)
            entry["speedup"] = round(
                serial["combined_s"] / max(1e-9, timings["combined_s"]), 2
            )
            results["jobs"][str(jobs)] = entry
            print(
                f"parallel scaling [jobs={jobs}]: sweep {timings['sweep_s']:5.2f}s, "
                f"campaign {timings['fault_campaign_s']:5.2f}s, "
                f"suite {timings['suite_s']:5.2f}s "
                f"(speedup {entry['speedup']:.2f}x)"
            )
        return results


def _scaling_regression(out_path: Path, scaling: dict) -> float | None:
    """Serial combined-seconds ratio vs the checked-in baseline (>1 = slower)."""
    try:
        baseline = json.loads(out_path.read_text())
        before = baseline["parallel_scaling"]["jobs"]["1"]["combined_s"]
    except (OSError, KeyError, ValueError):
        return None
    now = scaling["jobs"]["1"]["combined_s"]
    return round(now / max(1e-9, before), 2)


def bench_obs_overhead(pairs: int = 64, chunk: int = 256) -> dict:
    """Cost of the observability layer on the p1_8_2 compiled cosim
    (one bigint lane).

    One warm harness runs ``pairs`` back-to-back chunk pairs, one side
    of each pair with the obs switch off and one with it on, order
    alternating; the reported overhead is the median of the per-pair
    time ratios.  Pairing at chunk granularity cancels the clock and
    load drift that dominates coarse A/B timing on shared machines
    (raw rates here swing +-15% between seconds; the paired ratio is
    stable to ~1%).  Restores the obs switch to the caller's state.
    """
    was_enabled = obs.enabled()
    harness = CoSimHarness(_program_for(HEADLINE), HEADLINE, backend="compiled")
    for _ in range(64):  # warm-up: compile and reach steady state
        harness.step()
    ratios: list[float] = []
    times = {False: 0.0, True: 0.0}
    try:
        for i in range(pairs):
            order = (False, True) if i % 2 == 0 else (True, False)
            pair = {}
            for enabled in order:
                obs.STATE.enabled = enabled
                start = time.perf_counter()
                for _ in range(chunk):
                    harness.step()
                pair[enabled] = time.perf_counter() - start
            ratios.append(pair[True] / pair[False])
            times[False] += pair[False]
            times[True] += pair[True]
    finally:
        obs.STATE.enabled = was_enabled
    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    disabled = pairs * chunk / times[False]
    enabled = pairs * chunk / times[True]
    print(
        f"obs overhead (p1_8_2 cosim): "
        f"disabled {disabled:8.0f} c/s, "
        f"enabled {enabled:8.0f} c/s, overhead {overhead_pct:+.2f}%"
    )
    return {
        "disabled_cycles_per_s": round(disabled, 1),
        "enabled_cycles_per_s": round(enabled, 1),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": OVERHEAD_BUDGET_PCT,
    }


def bench_probe_overhead(pairs: int = 48, chunk: int = 160) -> dict:
    """Cost of enabled probing on the p1_8_2 interpreted cosim.

    Same paired-chunk scheme as :func:`bench_obs_overhead`, but the
    A/B axis is probes attached vs detached: one side of each pair
    runs with a full architectural waveform probe (PC, flags, BARs,
    bus) plus the per-instruction energy profiler, the other side
    bare.  Informational -- probing is opt-in, so there is no budget
    to enforce -- but recorded so the cost of ``profile-design`` runs
    is tracked across PRs.
    """
    from repro.netlist.probe import (
        InstructionEnergyProfiler,
        WaveProbe,
        resolve_probes,
    )
    from repro.pdk import technology_library

    harness = CoSimHarness(_program_for(HEADLINE), HEADLINE)
    for _ in range(64):  # warm-up: reach steady state
        harness.step()
    netlist = harness.netlist
    signals = resolve_probes(netlist, groups=("pc", "flags", "bars", "bus"))
    wave = WaveProbe(netlist, signals)
    profiler = InstructionEnergyProfiler(
        netlist,
        technology_library("EGFET"),
        resolve_probes(netlist, groups=("pc",))[0].nets,
    )
    ratios: list[float] = []
    times = {False: 0.0, True: 0.0}
    for i in range(pairs):
        order = (False, True) if i % 2 == 0 else (True, False)
        pair = {}
        for probed in order:
            if probed:
                harness.sim.attach_probe(wave)
                harness.sim.attach_probe(profiler)
            start = time.perf_counter()
            for _ in range(chunk):
                harness.step()
            pair[probed] = time.perf_counter() - start
            if probed:
                harness.sim.detach_probe(wave)
                harness.sim.detach_probe(profiler)
        ratios.append(pair[True] / pair[False])
        times[False] += pair[False]
        times[True] += pair[True]
    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    unprobed = pairs * chunk / times[False]
    probed = pairs * chunk / times[True]
    print(
        f"probe overhead (p1_8_2 cosim): unprobed {unprobed:8.0f} c/s, "
        f"probed {probed:8.0f} c/s, overhead {overhead_pct:+.2f}%"
    )
    return {
        "unprobed_cycles_per_s": round(unprobed, 1),
        "probed_cycles_per_s": round(probed, 1),
        "overhead_pct": round(overhead_pct, 2),
        "probed_signals": len(signals),
    }


def bench_yield_engine(units: int = 50_000, scalar_trials: int = 24) -> dict:
    """Monte-Carlo timing throughput: vectorized engine vs scalar loop.

    Samples ``units`` printed p1_8_2 units through the vectorized
    fleet sampler (:func:`repro.mc.timing.sample_delays`) and
    ``scalar_trials`` through the per-trial Python reference walk
    (:func:`repro.pdk.variation.monte_carlo_timing`), best of two
    passes each, and asserts the scalar samples are a bit-exact prefix
    of the vectorized ones -- the speedup only counts because both
    sides compute the *same* fleet.  ``speedup_vs_scalar`` is gated by
    the cross-run history sentinel rather than a fixed floor.
    """
    import numpy as np

    from repro.coregen.generator import generate_core
    from repro.mc.timing import sample_delays
    from repro.pdk import technology_library
    from repro.pdk.variation import monte_carlo_timing

    netlist = generate_core(HEADLINE)
    library = technology_library("EGFET")
    seed = 0xBEEF

    with obs.span("bench_yield_engine", side="vectorized"):
        vec_elapsed = float("inf")
        for _ in range(2):  # best of two: first pass pays kernel prep
            start = time.perf_counter()
            delays = sample_delays(netlist, library, 0.2, 0, units, seed)
            vec_elapsed = min(vec_elapsed, time.perf_counter() - start)
    with obs.span("bench_yield_engine", side="scalar"):
        scalar_elapsed = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            samples = monte_carlo_timing(
                netlist, library, sigma=0.2, trials=scalar_trials, seed=seed
            )
            scalar_elapsed = min(scalar_elapsed, time.perf_counter() - start)
    if not np.array_equal(np.array(samples), delays[:scalar_trials]):
        raise AssertionError(
            "vectorized delay samples diverged from the scalar reference"
        )

    vec_rate = units / max(1e-9, vec_elapsed)
    scalar_rate = scalar_trials / max(1e-9, scalar_elapsed)
    results = {
        "design": HEADLINE.name,
        "vectorized": {
            "units": units,
            "seconds": round(vec_elapsed, 3),
            "instances_per_s": round(vec_rate, 1),
        },
        "scalar": {
            "units": scalar_trials,
            "seconds": round(scalar_elapsed, 3),
            "instances_per_s": round(scalar_rate, 1),
        },
        "speedup_vs_scalar": round(vec_rate / max(1e-9, scalar_rate), 1),
    }
    print(
        f"yield engine ({HEADLINE.name}): vectorized {vec_rate:8.0f} units/s, "
        f"scalar {scalar_rate:6.1f} units/s, "
        f"speedup {results['speedup_vs_scalar']}x (bit-exact prefix)"
    )
    return results


#: Sweep cross-section for the placement-quality bench.
PLACEMENT_CONFIGS = ("p1_4_2", "p1_8_2", "p2_8_2", "p1_16_2")


def bench_placement_quality(
    configs=PLACEMENT_CONFIGS,
    technologies=("EGFET", "CNT"),
    seed: int = 0,
) -> dict:
    """Placement quality and wire-aware PPA across the sweep.

    Places each config on its auto-sized fabric in both technologies
    and records greedy-vs-annealed HPWL plus the wire-aware vs
    wire-blind fmax/energy deltas.  Keys are ``<design>.<technology>``;
    ``hpwl_m`` (lower) and ``improvement_pct`` (higher) are gated by
    the cross-run history sentinel.  The run also asserts the placer's
    two hard invariants -- annealed HPWL never worse than greedy, and
    wire-aware PPA never better than wire-blind -- so a quality bug
    fails the bench, not just a trend line.
    """
    from repro.coregen.config import config_from_name
    from repro.coregen.generator import generate_core
    from repro.pdk import technology_library
    from repro.place import fabric_for, place, wire_aware_ppa

    results: dict[str, dict] = {}
    for name in configs:
        netlist = generate_core(config_from_name(name))
        for technology in technologies:
            with obs.span(
                "bench_placement", design=name, technology=technology
            ):
                start = time.perf_counter()
                fabric = fabric_for(netlist, technology=technology)
                placement = place(netlist, fabric, seed=seed)
                ppa = wire_aware_ppa(
                    netlist, placement, technology_library(technology)
                )
                elapsed = time.perf_counter() - start
            if placement.hpwl > placement.greedy_hpwl:
                raise AssertionError(
                    f"{name}/{technology}: annealed HPWL worse than greedy"
                )
            if (
                ppa["delay_overhead_pct"] < 0.0
                or ppa["energy_overhead_pct"] < 0.0
            ):
                raise AssertionError(
                    f"{name}/{technology}: wire-aware PPA better than blind"
                )
            results[f"{name}.{technology}"] = {
                "fabric": fabric.name,
                "greedy_hpwl_m": round(placement.greedy_hpwl, 6),
                "hpwl_m": round(placement.hpwl, 6),
                "improvement_pct": round(placement.improvement_pct, 2),
                "delay_overhead_pct": round(ppa["delay_overhead_pct"], 3),
                "energy_overhead_pct": round(ppa["energy_overhead_pct"], 3),
                "wall_s": round(elapsed, 3),
            }
            print(
                f"placement ({name}, {technology}): "
                f"hpwl {placement.hpwl:.4g} m "
                f"(greedy -{placement.improvement_pct:.1f}%), "
                f"delay +{ppa['delay_overhead_pct']:.2f}%, "
                f"energy +{ppa['energy_overhead_pct']:.2f}%"
            )
    return results


def _baseline_regression(out_path: Path, overhead: dict) -> float | None:
    """Disabled-rate delta vs the checked-in baseline, percent (+ = slower)."""
    try:
        baseline = json.loads(out_path.read_text())
        before = baseline["obs_overhead"]["disabled_cycles_per_s"]
    except (OSError, KeyError, ValueError):
        return None
    now = overhead["disabled_cycles_per_s"]
    return round(100.0 * (before - now) / before, 2)


def main(argv: list[str]) -> int:
    """Run the benchmarks; write ``BENCH_sim.json`` unless ``--smoke``."""
    smoke = "--smoke" in argv
    check = "--check" in argv
    compact = "--compact" in argv
    obs.enable()  # the bench itself reports through the telemetry layer
    start = time.perf_counter()

    if smoke:
        cosim = bench_cosim(configs=(HEADLINE,), min_duration=0.1)
        fault = bench_fault_campaign(max_faults=16)
        numpy_fault = bench_fault_campaign_numpy(interpreted_sample=16)
        overhead = bench_obs_overhead(pairs=48, chunk=160)
        probe = bench_probe_overhead(pairs=24, chunk=96)
        scaling = bench_parallel_scaling(jobs_list=(1, 2), campaign_stride=8)
        yield_engine = bench_yield_engine(units=2_000, scalar_trials=8)
        placement = bench_placement_quality(
            configs=("p1_8_2",), technologies=("EGFET",)
        )
    else:
        cosim = bench_cosim()
        fault = bench_fault_campaign()
        numpy_fault = bench_fault_campaign_numpy()
        overhead = bench_obs_overhead()
        probe = bench_probe_overhead()
        scaling = bench_parallel_scaling()
        yield_engine = bench_yield_engine()
        placement = bench_placement_quality()

    out = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
    report = obs.build_run_report(
        ["bench_sim_backends", *argv], time.perf_counter() - start
    )
    report["schema"] = f"{obs.report.SCHEMA}+bench"
    report["python"] = report["environment"]["python"]
    report["machine"] = report["environment"]["machine"]
    report["cosim"] = cosim
    report["fault_campaign"] = fault
    report["fault_campaign_numpy"] = numpy_fault
    report["obs_overhead"] = overhead
    report["probe_overhead"] = probe
    report["parallel_scaling"] = scaling
    report["yield_engine"] = yield_engine
    report["placement_quality"] = placement
    report["headline_speedup_p1_8_2"] = cosim[HEADLINE.name]["speedup"]
    report["headline_numpy_campaign"] = {
        "speedup_vs_interpreted": numpy_fault["speedup_vs_interpreted"],
        "speedup_vs_batched": numpy_fault["speedup_vs_batched"],
    }
    regression = _baseline_regression(out, overhead)
    if regression is not None:
        report["baseline_regression_pct"] = regression
        print(f"disabled rate vs checked-in baseline: {regression:+.2f}% "
              "(informational)")
    serial_ratio = _scaling_regression(out, scaling)
    if serial_ratio is not None:
        report["serial_regression_factor"] = serial_ratio
        print(f"serial (jobs=1) combined time vs baseline: x{serial_ratio:.2f}")
    numpy_drop = _numpy_regression(out, numpy_fault)
    if numpy_drop is not None:
        report["numpy_regression_pct"] = numpy_drop
        print(
            f"numpy headline vs checked-in baseline: {numpy_drop:+.2f}% drop"
        )

    if smoke:
        # The file stays untouched, but the measured ratios still feed
        # the cross-run ledger so `history check` accumulates baseline
        # even from smoke runs (no-op under REPRO_HISTORY=0).
        from repro.obs import history

        history.record_report(report)
        print("smoke mode: BENCH_sim.json left untouched")
    else:
        obs.write_run_report(out, report, compact=compact)
        print(
            f"\nheadline cosim speedup ({HEADLINE.name}): "
            f"{report['headline_speedup_p1_8_2']}x -> {out}"
        )

    if check and overhead["overhead_pct"] > OVERHEAD_BUDGET_PCT:
        print(
            f"FAIL: obs overhead {overhead['overhead_pct']}% exceeds the "
            f"{OVERHEAD_BUDGET_PCT}% budget",
            file=sys.stderr,
        )
        return 1
    if check and numpy_fault["speedup_vs_interpreted"] < NUMPY_VS_INTERPRETED_FLOOR:
        print(
            f"FAIL: numpy campaign speedup "
            f"{numpy_fault['speedup_vs_interpreted']}x vs interpreted is below "
            f"the {NUMPY_VS_INTERPRETED_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    if check and numpy_fault["speedup_vs_batched"] < NUMPY_VS_BATCHED_FLOOR:
        print(
            f"FAIL: numpy campaign speedup "
            f"{numpy_fault['speedup_vs_batched']}x vs batched is below the "
            f"{NUMPY_VS_BATCHED_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    if check and numpy_drop is not None and numpy_drop > NUMPY_REGRESSION_PCT:
        print(
            f"FAIL: numpy headline dropped {numpy_drop:.1f}% vs the recorded "
            f"baseline (tolerance {NUMPY_REGRESSION_PCT}%)",
            file=sys.stderr,
        )
        return 1
    if check and serial_ratio is not None and serial_ratio > SCALING_REGRESSION_FACTOR:
        print(
            f"FAIL: serial combined time regressed x{serial_ratio:.2f} vs the "
            f"baseline (tolerance x{SCALING_REGRESSION_FACTOR})",
            file=sys.stderr,
        )
        return 1
    cpus = scaling["cpu_count"] or 1
    if cpus == 1:
        # Parallel speedups cannot exceed 1 with a single CPU; the
        # section stays recorded but is not a gate on this machine.
        print(
            "parallel scaling check skipped: cpu_count == 1 "
            "(speedups are informational on a single-CPU machine)"
        )
    top = scaling["jobs"].get("4")
    if (
        check and not smoke and cpus >= 4
        and top and top["speedup"] < SCALING_FLOOR
    ):
        print(
            f"FAIL: jobs=4 speedup {top['speedup']}x below the "
            f"{SCALING_FLOOR}x floor on a {cpus}-core machine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
