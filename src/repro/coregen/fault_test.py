"""Functional print-test campaigns: benchmarks as fault detectors.

Runs a benchmark on fault-injected variants of a generated core and
measures what fraction of stuck-at faults the program's architectural
result exposes -- i.e. how good "run the application and check its
output" is as a post-print test (the only economical test for sub-cent
printed systems).

Campaigns are embarrassingly parallel across fault sites, and the
lane backends exploit that with cross-run lane packing
(:class:`repro.netlist.lanes.LanePlan`): each lane carries one faulty
machine with its own data memory image, so one gate evaluation pass
advances many fault simulations.  Two lane backends exist --
``"batched"`` (bigint :class:`repro.netlist.compile.BitParallelSimulator`,
:data:`DEFAULT_LANES` faults per pass) and ``"numpy"`` (vectorized
uint64 bit-slice :class:`repro.netlist.nsim.NumpySimulator`,
:data:`DEFAULT_NUMPY_LANES` faults per pass with fully vectorized
fetch/memory plumbing).  The ``"interpreted"`` backend runs one fault
at a time on the reference simulator and exists for cross-checking;
all three produce identical campaigns.

On top of lane-level batching, ``jobs=`` fans batches (or, for the
interpreted backend, individual faults) out across worker processes via
:func:`repro.exec.parallel_map` with a warm-worker initializer that
pre-builds the campaign context (netlist, ROM, compiled kernels) in
each worker before the first chunk lands.  Judging happens in the
parent in submission order, so a parallel campaign is bit-identical to
the serial one, down to the order of ``undetected_sites``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro import obs
from repro.coregen.config import CoreConfig
from repro.coregen.cosim import CoSimHarness, architectural_nets
from repro.coregen.generator import generate_core
from repro.coregen.isa_map import encode_for_core, encode_program_for_core
from repro.errors import ConfigError
from repro.exec import map_in_chunks, parallel_map
from repro.isa.program import Program
from repro.isa.spec import Instruction, Mnemonic
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.faults import (
    FaultCampaign,
    StuckAtFault,
    enumerate_fault_sites,
)
from repro.netlist.lanes import LaneMemoryHarness, LanePlan
from repro.netlist.nsim import NumpySimulator
from repro.sim.machine import Machine

#: Campaign backends: bigint lanes, numpy lanes, one fault at a time
#: on the interpreter.
BACKENDS = ("batched", "numpy", "interpreted")

#: Fault sites evaluated per bit-parallel pass in batched campaigns.
DEFAULT_LANES = 48

#: Fault sites evaluated per kernel pass in numpy campaigns.  Far
#: larger than the bigint width because a vectorized pass costs almost
#: the same for 64 lanes as for 8192 -- the per-gate ufunc dispatch
#: dominates, not the word count.
DEFAULT_NUMPY_LANES = 8192

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

    Hoists what :func:`_run_batched` used to rebuild per 48-fault
    batch: the elaborated netlist, the encoded ROM, the initial
    data-memory image, the flag/BAR net index from
    :func:`architectural_nets`, and the halt-word padding memo (shared
    across batches -- entries are pure functions of the PC).
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
    mask = (1 << config.datawidth) - 1
    base = [0] * config.data_memory_words()
    for address, value in program.data.items():
        base[address] = value & mask
    flag_nets, bar_nets = architectural_nets(netlist)
    return _CampaignContext(
        netlist=netlist,
        rom=encode_program_for_core(program, config),
        base_memory=base,
        flag_nets=flag_nets,
        bar_nets=bar_nets,
        halt_words={},
    )


# One-slot context memo for pool workers: every batch of a campaign
# shares (program name, config), so a worker prepares the context once
# and reuses it for each chunk it serves.
_WORKER_CONTEXT: tuple[tuple, _CampaignContext] | None = None


def _campaign_context(program: Program, config: CoreConfig) -> _CampaignContext:
    global _WORKER_CONTEXT
    key = (program.name, config)
    if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != key:
        _WORKER_CONTEXT = (key, _prepare_campaign(program, config))
    return _WORKER_CONTEXT[1]


def halt_word_encoder(config: CoreConfig):
    """``pc -> instruction word`` for fetches past the program end.

    Encodes the same self-branch the scalar harness pads with; shared
    by both lane backends and the differential verifier via
    :class:`~repro.netlist.lanes.LaneMemoryHarness`.
    """

    def encode(pc: int) -> int:
        return encode_for_core(
            Instruction(Mnemonic.BRN, target=pc, mask=0), config
        )

    return encode


def _lane_signatures(
    harness: LaneMemoryHarness, config: CoreConfig, context: _CampaignContext
) -> list[tuple]:
    """Per-lane architectural signatures after a finished harness run."""
    sim = harness.sim
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
        for lane in range(harness.lanes)
    ]


def _run_batched(
    program: Program,
    config: CoreConfig,
    cycles: int,
    faults: list[StuckAtFault],
    context: _CampaignContext | None = None,
) -> list[tuple]:
    """Architectural signatures of ``len(faults)`` faulty runs at once.

    Runs the clock schedule of :meth:`CoSimHarness.step`
    (:class:`~repro.netlist.lanes.ClockSchedule`: one address-cone
    settle and one full settle per cycle), but every lane carries its
    own fault and its own data-memory image.  The memory loop itself
    lives in the shared :class:`~repro.netlist.lanes.LaneMemoryHarness`.
    """
    if context is None:
        context = _prepare_campaign(program, config)
    lanes = len(faults)
    sim = BitParallelSimulator(context.netlist, lanes, faults=faults)
    harness = LaneMemoryHarness(
        sim,
        lanes=lanes,
        rom=context.rom,
        base_memory=context.base_memory,
        halt_word=halt_word_encoder(config),
        halt_words=context.halt_words,
    )
    harness.run(cycles)
    return _lane_signatures(harness, config, context)


def _run_batched_numpy(
    program: Program,
    config: CoreConfig,
    cycles: int,
    faults: list[StuckAtFault],
    context: _CampaignContext | None = None,
) -> list[tuple]:
    """Architectural signatures of ``len(faults)`` faulty runs at once,
    on the numpy bit-slice backend.

    Same clock schedule as :func:`_run_batched` and
    :meth:`CoSimHarness.step`, but on the shared harness's array path: instruction fetch is a table gather, data memory is one
    ``(lanes, words)`` array read with fancy indexing and written back
    under the ``we`` mask, so the run stays O(kernel calls) rather
    than O(lanes) per cycle.
    """
    if context is None:
        context = _prepare_campaign(program, config)
    lanes = len(faults)
    sim = NumpySimulator(context.netlist, plan=LanePlan.for_faults(faults))
    harness = LaneMemoryHarness(
        sim,
        lanes=lanes,
        rom=context.rom,
        base_memory=context.base_memory,
        halt_word=halt_word_encoder(config),
        halt_words=context.halt_words,
        pc_bits=len(context.netlist.outputs["pc"].nets),
    )
    harness.run(cycles)
    return _lane_signatures(harness, config, context)


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
    :class:`LanePlan` per-lane fault semantics.  This is the
    Monte-Carlo yield engine's doorway into the campaign machinery:
    :mod:`repro.mc.fyield` packs sampled defective units through here
    and compares against :func:`golden_signature`.  Pass ``context``
    (see :func:`prepare_context`) to amortize elaboration across
    batches.
    """
    return _run_batched_numpy(program, config, cycles, list(fault_sets), context)


def prepare_context(program: Program, config: CoreConfig) -> _CampaignContext:
    """Worker-memoized campaign context (public alias for engines)."""
    return _campaign_context(program, config)


def _judge_one(
    program: Program,
    config: CoreConfig,
    cycles: int,
    backend: str,
    fault: StuckAtFault,
) -> tuple:
    """Scalar verdict for one fault: ``("ok", signature)`` or ``("wedged", None)``.

    A fault that wedges the simulation is certainly detected; the
    parent treats the ``"wedged"`` status as a divergence.
    """
    try:
        return ("ok", _run(program, config, cycles, fault, backend))
    except Exception:
        return ("wedged", None)


def _judge_batch(
    program: Program,
    config: CoreConfig,
    cycles: int,
    scalar_backend: str,
    faults: list[StuckAtFault],
    runner=_run_batched,
) -> list[tuple]:
    """Lane-parallel verdicts for one batch (``parallel_map`` target).

    ``runner`` is the lane backend (:func:`_run_batched` for bigint,
    :func:`_run_batched_numpy` for bit-slice).  Falls back to
    one-at-a-time runs (the compiled kernel at one lane) when the
    batched run itself raises,
    so a wedging fault is attributed to the lane that caused it --
    exactly the serial campaign's recovery path.
    """
    context = _campaign_context(program, config)
    try:
        outcomes = runner(program, config, cycles, faults, context)
    except Exception:
        return [
            _judge_one(program, config, cycles, scalar_backend, fault)
            for fault in faults
        ]
    return [("ok", outcome) for outcome in outcomes]


def run_fault_campaign(
    program: Program,
    config: CoreConfig | None = None,
    stride: int = 8,
    max_faults: int | None = None,
    backend: str = "batched",
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
        backend: ``"batched"`` (default; bigint bit-parallel),
            ``"numpy"`` (vectorized bit-slice, fastest for large
            campaigns), or ``"interpreted"`` (one fault at a time).
        lanes: Faults per lane-parallel pass; defaults to
            :data:`DEFAULT_LANES` (batched) or
            :data:`DEFAULT_NUMPY_LANES` (numpy).
        jobs: Worker processes for the fault fan-out (``None`` defers
            to ``--jobs`` / ``REPRO_JOBS`` / serial).  Results are
            bit-exact against ``jobs=1``.

    A fault is *detected* when the faulty run's architectural
    signature differs from the golden run's after the same cycle
    count.

    Raises:
        ConfigError: If ``backend`` is not one of :data:`BACKENDS`.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown campaign backend {backend!r} "
            f"(choose from {', '.join(BACKENDS)})"
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

        scalar_backend = "interpreted" if backend == "interpreted" else "compiled"
        golden = _run(program, config, cycles, backend=scalar_backend)
        sites = enumerate_fault_sites_from_config(program, config, stride)
        if max_faults is not None:
            sites = sites[:max_faults]

        label = f"fault_campaign[{program.name}]"
        warm = partial(_campaign_context, program, config)
        if backend in ("batched", "numpy"):
            runner = _run_batched if backend == "batched" else _run_batched_numpy
            if lanes is None:
                lanes = (
                    DEFAULT_LANES if backend == "batched" else DEFAULT_NUMPY_LANES
                )
            verdicts = map_in_chunks(
                partial(
                    _judge_batch,
                    program,
                    config,
                    cycles,
                    scalar_backend,
                    runner=runner,
                ),
                sites,
                chunk_size=lanes,
                jobs=jobs,
                label=label,
                warm=warm,
            )
        else:
            verdicts = parallel_map(
                partial(_judge_one, program, config, cycles, scalar_backend),
                sites,
                jobs=jobs,
                label=label,
                warm=warm,
            )

        detected = 0
        undetected: list[StuckAtFault] = []
        for fault, (status, outcome) in zip(sites, verdicts):
            if status != "ok" or outcome != golden:
                detected += 1
            else:
                undetected.append(fault)

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
