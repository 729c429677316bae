"""Functional print-test campaigns: benchmarks as fault detectors.

Runs a benchmark on fault-injected variants of a generated core and
measures what fraction of stuck-at faults the program's architectural
result exposes -- i.e. how good "run the application and check its
output" is as a post-print test (the only economical test for sub-cent
printed systems).

Campaigns are embarrassingly parallel across fault sites, and the
``"numpy"`` backend exploits that with cross-run lane packing
(:class:`repro.netlist.lanes.LanePlan`) on the vectorized uint64
bit-slice :class:`repro.netlist.nsim.NumpySimulator`: each lane
carries one faulty machine with its own data memory image, so one
gate evaluation pass advances :data:`DEFAULT_NUMPY_LANES` fault
simulations, with fully vectorized fetch/memory plumbing.  The
``"interpreted"`` backend runs one fault at a time on the reference
simulator and exists for cross-checking; both produce identical
campaigns.

A lane batch that raises is bisected by :func:`safe_signatures` until
the lanes that wedge the simulation are isolated; each of those reads
:data:`WEDGED`, which never equals a golden signature, so the fault
counts as detected.  The Monte-Carlo yield engine
(:mod:`repro.mc.fyield`) judges its sampled defective units through
the same routine, so one policy decides that a faulted unit is broken.

On top of lane-level batching, ``jobs=`` fans batches (or, for the
interpreted backend, individual faults) out across worker processes via
:func:`repro.exec.parallel_map` with a warm-worker initializer that
pre-builds the campaign context (netlist, ROM, memory image) in each
worker before the first chunk lands.  Judging happens in the parent in
submission order, so a parallel campaign is bit-identical to the
serial one, down to the order of ``undetected_sites``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro import obs
from repro.coregen.config import CoreConfig
from repro.coregen.cosim import (
    CoSimHarness,
    architectural_nets,
    halt_word_encoder,
    initial_memory,
)
from repro.coregen.generator import generate_core
from repro.coregen.isa_map import encode_program_for_core
from repro.errors import ConfigError
from repro.exec import map_in_chunks, parallel_map
from repro.isa.program import Program
from repro.netlist.faults import (
    FaultCampaign,
    StuckAtFault,
    enumerate_fault_sites,
)
from repro.netlist.lanes import LaneMemoryHarness, LanePlan
from repro.netlist.nsim import NumpySimulator
from repro.sim.machine import Machine

#: Campaign backends: numpy lanes, one fault at a time on the interpreter.
BACKENDS = ("numpy", "interpreted")

#: Fault sites evaluated per kernel pass in numpy campaigns.  A
#: vectorized pass costs almost the same for 64 lanes as for 8192 --
#: the per-gate ufunc dispatch dominates, not the word count.
DEFAULT_NUMPY_LANES = 8192

#: Signature of a run whose simulation wedged (certainly broken).
WEDGED = ("wedged",)

_FAULTS_INJECTED = obs.counter("faults.injected")
_FAULTS_DETECTED = obs.counter("faults.detected")
_FAULT_RATE = obs.histogram("faults.per_second")

# Per-backend throughput (faults.per_second.<backend>), created lazily
# so only exercised backends appear in run reports.
_RATES_BY_BACKEND: dict[str, obs.Histogram] = {}


def _fault_rate(backend: str):
    rate = _RATES_BY_BACKEND.get(backend)
    if rate is None:
        rate = _RATES_BY_BACKEND[backend] = obs.histogram(
            f"faults.per_second.{backend}"
        )
    return rate


def _signature(harness: CoSimHarness) -> tuple:
    """Architectural outcome: data memory, PC, flags, BARs."""
    flags = tuple(harness.flag(f) for f in harness.config.flags)
    bars = tuple(harness.bar(i) for i in range(1, harness.config.num_bars))
    return (tuple(harness.memory), harness.pc, flags, bars)


def _run(
    program: Program,
    config: CoreConfig,
    cycles: int,
    fault=None,
    backend: str = "compiled",
) -> tuple:
    harness = CoSimHarness(program, config, backend=backend, fault=fault)
    for _ in range(cycles):
        harness.step()
    return _signature(harness)


@dataclass
class _CampaignContext:
    """Per-campaign invariants, computed once and shared by every batch.

    The elaborated netlist, the encoded ROM, the initial data-memory
    image, the flag/BAR net index from :func:`architectural_nets`, and
    the halt-word padding memo (shared across batches -- entries are
    pure functions of the PC).
    """

    netlist: object
    rom: list[int]
    base_memory: list[int]
    flag_nets: dict
    bar_nets: dict
    halt_words: dict


def _prepare_campaign(program: Program, config: CoreConfig) -> _CampaignContext:
    """Build the shared per-campaign context (one elaboration, one scan)."""
    netlist = generate_core(config)
    flag_nets, bar_nets = architectural_nets(netlist)
    return _CampaignContext(
        netlist=netlist,
        rom=encode_program_for_core(program, config),
        base_memory=initial_memory(program, config),
        flag_nets=flag_nets,
        bar_nets=bar_nets,
        halt_words={},
    )


# One-slot context memo for pool workers (see :func:`prepare_context`).
_WORKER_CONTEXT: tuple[tuple, _CampaignContext] | None = None


def prepare_context(program: Program, config: CoreConfig) -> _CampaignContext:
    """The campaign context of ``(program, config)``, memoized per worker.

    Every batch of a campaign (and every batch of a yield shard) shares
    it, so a worker prepares the context once and reuses it for each
    chunk it serves.  Programs compare by value, not by name: two
    programs may share a name.
    """
    global _WORKER_CONTEXT
    key = (program, config)
    if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != key:
        _WORKER_CONTEXT = (key, _prepare_campaign(program, config))
    return _WORKER_CONTEXT[1]


def golden_signature(
    program: Program,
    config: CoreConfig,
    cycles: int,
    backend: str = "compiled",
) -> tuple:
    """Architectural signature of the healthy core after ``cycles``."""
    return _run(program, config, cycles, backend=backend)


def lane_signatures(
    program: Program,
    config: CoreConfig,
    cycles: int,
    fault_sets: Sequence,
    context: _CampaignContext | None = None,
) -> list[tuple]:
    """Architectural signatures of lane-packed faulty units (numpy).

    One entry per element of ``fault_sets``; each entry may be a
    single :class:`StuckAtFault`, a tuple of them (a multi-defect
    printed unit), or ``None`` for a healthy lane -- the
    :class:`LanePlan` per-lane fault semantics.  Every lane runs the
    clock schedule of :meth:`CoSimHarness.step` on the shared
    harness's array path: instruction fetch is a table gather, data
    memory is one ``(lanes, words)`` array read with fancy indexing
    and written back under the ``we`` mask, so the run stays O(kernel
    calls) rather than O(lanes) per cycle.  ``context`` defaults to
    the worker-memoized one (see :func:`prepare_context`).
    """
    if context is None:
        context = prepare_context(program, config)
    lanes = len(fault_sets)
    netlist = context.netlist
    sim = NumpySimulator(netlist, plan=LanePlan.for_faults(fault_sets))
    harness = LaneMemoryHarness(
        sim,
        lanes=lanes,
        rom=context.rom,
        base_memory=context.base_memory,
        halt_word=halt_word_encoder(config),
        halt_words=context.halt_words,
        pc_bits=len(netlist.outputs["pc"].nets),
    )
    harness.run(cycles)
    memory_rows = harness.memory_rows()
    pcs = sim.read_output("pc")
    flag_values = [
        sim.read_nets(context.flag_nets.get(flag.name, ()))
        for flag in config.flags
    ]
    bar_values = [
        sim.read_nets(context.bar_nets.get(index, ()))
        for index in range(1, config.num_bars)
    ]
    return [
        (
            tuple(memory_rows[lane]),
            pcs[lane],
            tuple(values[lane] for values in flag_values),
            tuple(values[lane] for values in bar_values),
        )
        for lane in range(lanes)
    ]


def safe_signatures(
    program: Program,
    config: CoreConfig,
    cycles: int,
    fault_sets: Sequence,
    context: _CampaignContext | None = None,
) -> list[tuple]:
    """:func:`lane_signatures` with wedge isolation.

    A pathological fault set can wedge the whole packed pass (e.g. a
    stuck clock-tree cell).  When the batch raises, bisect it until the
    offending lanes are isolated; a single lane that still raises
    reports :data:`WEDGED` -- that unit is certainly broken.
    """
    if not fault_sets:
        return []
    try:
        return lane_signatures(program, config, cycles, fault_sets, context)
    except Exception:
        if len(fault_sets) == 1:
            return [WEDGED]
        mid = len(fault_sets) // 2
        return safe_signatures(
            program, config, cycles, fault_sets[:mid], context
        ) + safe_signatures(program, config, cycles, fault_sets[mid:], context)


def _judge_one(
    program: Program, config: CoreConfig, cycles: int, fault: StuckAtFault
) -> tuple:
    """Signature of one interpreted faulty run, or :data:`WEDGED` if it raises."""
    try:
        return _run(program, config, cycles, fault, "interpreted")
    except Exception:
        return WEDGED


def run_fault_campaign(
    program: Program,
    config: CoreConfig | None = None,
    stride: int = 8,
    max_faults: int | None = None,
    backend: str = "numpy",
    lanes: int | None = None,
    jobs: int | None = None,
) -> FaultCampaign:
    """Inject sampled stuck-at faults and count detections.

    Args:
        program: The benchmark used as the functional test.
        config: Core configuration (single-stage default).
        stride: Sample every ``stride``-th instance (full enumeration
            is quadratic in runtime; sampling estimates coverage).
        max_faults: Optional cap on injected faults.
        backend: ``"numpy"`` (default; vectorized bit-slice lanes) or
            ``"interpreted"`` (one fault at a time on the reference).
        lanes: Faults per numpy pass; defaults to
            :data:`DEFAULT_NUMPY_LANES`.  The interpreted backend runs
            one fault at a time and refuses it.
        jobs: Worker processes for the fault fan-out (``None`` defers
            to ``--jobs`` / ``REPRO_JOBS`` / serial).  Results are
            bit-exact against ``jobs=1``.

    A fault is *detected* when the faulty run's architectural
    signature differs from the golden run's after the same cycle
    count (a wedged run reads :data:`WEDGED`, which always differs).

    Raises:
        ConfigError: If ``backend`` is not one of :data:`BACKENDS`, or
            if ``lanes`` is given to the interpreted backend.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown campaign backend {backend!r} "
            f"(choose from {', '.join(BACKENDS)})"
        )
    if lanes is not None and backend != "numpy":
        raise ConfigError(
            f"lanes={lanes} needs the numpy backend: the {backend} "
            "backend runs one fault at a time"
        )
    if config is None:
        config = CoreConfig(
            datawidth=program.datawidth,
            pipeline_stages=1,
            num_bars=max(2, program.num_bars),
        )
    with obs.span(
        "fault_campaign",
        program=program.name,
        design=config.name,
        backend=backend,
    ) as sp:
        started = time.perf_counter()
        machine = Machine(program, num_bars=config.num_bars)
        machine.run()
        cycles = machine.stats.instructions

        # The golden run takes the compiled kernel at one bigint lane;
        # the interpreted backend stays on the reference throughout.
        golden_backend = "interpreted" if backend == "interpreted" else "compiled"
        golden = _run(program, config, cycles, backend=golden_backend)
        sites = enumerate_fault_sites_from_config(program, config, stride)
        if max_faults is not None:
            sites = sites[:max_faults]

        label = f"fault_campaign[{program.name}]"
        warm = partial(prepare_context, program, config)
        if backend == "numpy":
            signatures = map_in_chunks(
                partial(safe_signatures, program, config, cycles),
                sites,
                chunk_size=DEFAULT_NUMPY_LANES if lanes is None else lanes,
                jobs=jobs,
                label=label,
                warm=warm,
            )
        else:
            signatures = parallel_map(
                partial(_judge_one, program, config, cycles),
                sites,
                jobs=jobs,
                label=label,
                warm=warm,
            )

        undetected = [
            fault
            for fault, signature in zip(sites, signatures)
            if signature == golden
        ]
        detected = len(sites) - len(undetected)

        elapsed = time.perf_counter() - started
        _FAULTS_INJECTED.inc(len(sites))
        _FAULTS_DETECTED.inc(detected)
        if elapsed > 0:
            _FAULT_RATE.observe(len(sites) / elapsed)
            _fault_rate(backend).observe(len(sites) / elapsed)
        sp.note(faults=len(sites), detected=detected)
        return FaultCampaign(
            total=len(sites), detected=detected, undetected_sites=tuple(undetected)
        )


def enumerate_fault_sites_from_config(
    program: Program, config: CoreConfig, stride: int
) -> list[StuckAtFault]:
    """Fault sites over the core the campaign will instantiate."""
    return enumerate_fault_sites(generate_core(config), stride=stride)
