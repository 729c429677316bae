"""The benchmark's three workloads, driven through the public ``repro`` drivers.

Each workload is a closed loop: one client in one process, each op
starting when the previous one returns.  Ops come in rounds -- a pass
over the paper's grid, one cycle over the yield cores, one fuzz seed
across the verify configurations -- and a run stops only between
rounds, so every run measures the same mix of ops.

The three split the layers that the open performance work will change,
so each such change has one workload that runs it and one that does not:

* ``paper_dse`` -- STA and the instruction-set simulator, no gate-level
  simulation;
* ``yield_fleet`` -- Monte-Carlo sampling and ~1024-lane numpy
  simulation;
* ``verify_fuzz`` -- the four gate-level simulators at one lane.

Calls go through module attributes (``sweep.evaluate_design``), never
through names bound here, so the traced run's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import math

import repro.exec
from repro import mc, verify
from repro.coregen.config import CoreConfig, standard_sweep
from repro.dse import sweep
from repro.eval import figures, suite
from repro.verify import differential

#: Seed of the fixed set-up inputs; the workload seed is never negative,
#: so set-up never runs one of the timed ops' inputs.
SETUP_SEED = -1

#: The Monte-Carlo cores, in op order: p1_{4,8,16,32}_2 x EGFET/CNT.
YIELD_PAIRS = tuple(
    (CoreConfig(datawidth=width), technology)
    for width in (4, 8, 16, 32)
    for technology in ("EGFET", "CNT")
)


def canonical(value) -> str:
    """Exact text of a result: dataclasses as field tuples, floats by repr."""
    if dataclasses.is_dataclass(value):
        return repr(dataclasses.astuple(value))
    return repr(value)


def _positive(name: str, value: float) -> str | None:
    if not (math.isfinite(value) and value > 0):
        return f"{name} = {value!r} is not finite and positive"
    return None


class Workload:
    """One workload: set-up, rounds of ops, and a check per op."""

    name = ""
    why = ""
    work_unit = ""
    #: Rounds the printed digest and ``peak_rss_mb`` cover (every run
    #: of the default length completes them).
    digest_rounds = 1

    def prepare(self) -> None:
        """Cold set-up: build what the timed ops use, from fixed inputs."""
        raise NotImplementedError

    def rounds(self, seed: int):
        """Endless rounds of ops generated from ``seed``."""
        raise NotImplementedError

    def start_round(self) -> None:
        """Called before each round's first op, outside op timing."""

    def execute(self, op):
        raise NotImplementedError

    def work(self, result) -> int:
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        """Why ``result`` is wrong for ``op``, or None when it passes."""
        raise NotImplementedError

    def digest_text(self, op, result) -> str:
        """The exact text one op's result adds to the run digest."""
        return canonical(result)


class PaperDse(Workload):
    """Fig 7 grid points and the Section 8 suite cells, pass after pass.

    The paper's grid is fixed, so the seed does not change the inputs.
    Each pass starts from ``clear_caches()`` over the disk cache that
    set-up filled; every timed op must equal the cold set-up pass
    bit-for-bit.
    """

    name = "paper_dse"
    why = (
        "the compute behind `repro all`: ISS- and STA-bound, no gate-level "
        "simulation, so it bypasses every simulator change"
    )
    work_unit = "design evaluations"

    def __init__(self, points=None, cells=None) -> None:
        if points is None:
            points = [
                (config, technology)
                for technology in ("EGFET", "CNT")
                for config in standard_sweep()
            ]
        if cells is None:
            cells = suite.suite_grid()
        self.ops = [("point", config, technology) for config, technology in points]
        self.ops += [("cell", *cell) for cell in cells]
        self.reference: dict = {}

    def prepare(self) -> None:
        self.start_round()
        for op in self.ops:
            result = self.execute(op)
            failure, text = self._sane(op, result), canonical(result)
            if failure is None and self.reference.get(op, text) != text:
                failure = "differs from an earlier cold pass"
            if failure is not None:
                raise RuntimeError(f"set-up {op[0]} {op[1:]}: {failure}")
            self.reference[op] = text

    def rounds(self, seed: int):
        while True:
            yield self.ops

    def start_round(self) -> None:
        repro.exec.clear_caches()

    def execute(self, op):
        if op[0] == "point":
            return sweep.evaluate_design(op[1], op[2])
        return figures.fig8_benchmark(*op[1:])

    def work(self, result) -> int:
        return 1 if isinstance(result, sweep.DesignPoint) else len(result)

    def _sane(self, op, result) -> str | None:
        if op[0] == "point":
            fields = ("fmax", "area", "combinational_area", "sequential_area",
                      "power_at_fmax")
            rows = [result]
        else:
            fields = ("core_combinational_area", "core_sequential_area",
                      "imem_area", "dmem_area", "core_combinational_energy",
                      "core_sequential_energy", "imem_energy", "dmem_energy",
                      "core_fmax")
            rows = list(result)
            if not rows:
                return "no systems evaluated"
        for row in rows:
            for field in fields:
                failure = _positive(field, getattr(row, field))
                if failure is not None:
                    return failure
        return None

    def check(self, op, result) -> str | None:
        failure = self._sane(op, result)
        if failure is None and canonical(result) != self.reference[op]:
            failure = "differs from the cold set-up pass"
        return failure


class YieldFleet(Workload):
    """One ``run_yield_campaign`` of a 2048-unit block per op.

    Ops cycle through :data:`YIELD_PAIRS` at sigma 0.2 and device yield
    0.99995 (the ``benchmarks/test_ext_yield.py`` settings); op ``i``
    samples with seed ``workload seed + i``.
    """

    name = "yield_fleet"
    why = (
        "the Monte-Carlo layer users wait on longest, and the only workload "
        "that drives numpy lanes wide (hundreds of defective units per pass)"
    )
    work_unit = "printed units"
    digest_rounds = 4

    #: Units per set-up campaign: enough defective ones to build the lanes.
    setup_units = 256

    def __init__(self, pairs=YIELD_PAIRS) -> None:
        self.pairs = tuple(pairs)

    @staticmethod
    def spec(config: CoreConfig, technology: str, seed: int):
        return mc.YieldSpec(
            config=config, technology=technology, sigma=0.2,
            device_yield=0.99995, seed=seed,
        )

    def prepare(self) -> None:
        for config, technology in self.pairs:
            spec = self.spec(config, technology, SETUP_SEED)
            report = mc.run_yield_campaign(spec, self.setup_units, jobs=1)
            failure = self._sane(report, self.setup_units)
            if failure is not None:
                raise RuntimeError(f"set-up {config.name}@{technology}: {failure}")

    def rounds(self, seed: int):
        index = 0
        while True:
            ops = []
            for config, technology in self.pairs:
                ops.append(self.spec(config, technology, seed + index))
                index += 1
            yield ops

    def execute(self, spec):
        return mc.run_yield_campaign(spec, spec.block, jobs=1)

    def work(self, report) -> int:
        return report.instances

    @staticmethod
    def _sane(report, instances: int) -> str | None:
        if report.instances != instances:
            return f"{report.instances} units reported, {instances} asked"
        counted = mc.QuantileSketch.from_dict(report.delay_sketch).count
        if counted != instances:
            return f"delay sketch counts {counted} of {instances} units"
        if not 0 <= report.working_defective <= report.defective <= instances:
            return (
                f"working_defective {report.working_defective}, defective "
                f"{report.defective}, instances {instances} out of order"
            )
        fmax = [report.fmax_quantiles[q] for q in sorted(report.fmax_quantiles)]
        if any(b < a for a, b in zip(fmax, fmax[1:])) or not all(map(math.isfinite, fmax)):
            return f"fmax quantiles {fmax} not finite and non-decreasing in q"
        return None

    def check(self, spec, report) -> str | None:
        return self._sane(report, spec.block)

    def digest_text(self, spec, report) -> str:
        # Everything simulated; the host-time fields differ run to run.
        view = report.to_dict()
        for field in ("instances_per_second", "wall_seconds", "jobs"):
            view.pop(field)
        return canonical(sorted(view.items()))


class VerifyFuzz(Workload):
    """One differential fuzz case per op: ``run_campaign([seed], (config,))``.

    Ops cycle through ``DEFAULT_CONFIGS`` (p1_8_2, p2_4_4, p3_16_2) at the
    CLI's default program size; seeds are consecutive from the workload
    seed.  A divergence fails the op; nothing is shrunk in the loop.
    """

    name = "verify_fuzz"
    why = (
        "ISS, interpreted and compiled cosim, bigint and numpy lanes at one "
        "lane, and a fresh program-specific core per case; bypasses STA and mc"
    )
    work_unit = "fuzz cases"
    digest_rounds = 10

    def __init__(self, configs=verify.DEFAULT_CONFIGS) -> None:
        self.configs = tuple(configs)

    def _case(self, seed: int, config: CoreConfig):
        return verify.run_campaign([seed], configs=(config,), jobs=1,
                                   shrink_failures=False)

    def prepare(self) -> None:
        for config in self.configs:
            failure = self._sane(self._case(SETUP_SEED, config))
            if failure is not None:
                raise RuntimeError(f"set-up {config.name}: {failure}")

    def rounds(self, seed: int):
        while True:
            yield [(seed, config) for config in self.configs]
            seed += 1

    def execute(self, op):
        return self._case(*op)

    def work(self, result) -> int:
        return len(result.cases)

    @staticmethod
    def _sane(result) -> str | None:
        if len(result.cases) != 1:
            return f"{len(result.cases)} cases run, 1 asked"
        if not result.ok:
            return "; ".join(result.cases[0].divergences[:2])
        return None

    def check(self, op, result) -> str | None:
        return self._sane(result)

    def digest_text(self, op, result) -> str:
        # A case result holds only its identity and divergences.  Every
        # executor was checked against the ISS run of the same program,
        # so digest that run's final state and statistics as well.
        seed, config = op
        program = verify.random_program(
            seed, datawidth=config.datawidth, num_bars=config.num_bars,
        )
        machine = differential.iss_reference(program, config)
        state = (machine.pc, machine.flags, machine.bars, machine.memory,
                 dataclasses.astuple(machine.stats))
        return canonical((dataclasses.astuple(result.cases[0]), state))


WORKLOADS = {cls.name: cls for cls in (PaperDse, YieldFleet, VerifyFuzz)}


def fmax_agreement() -> dict:
    """Fleet nominal fmax against STA fmax over :data:`YIELD_PAIRS`.

    The fleet fmax of each pair comes from a 1-unit campaign (nominal
    fmax depends on neither seed nor unit count).  With ``r = fleet /
    STA`` per pair, ``agreement_pct`` is the worst pair's ratio of the
    smaller fmax to the larger, ``100 * min(min(r, 1/r))`` (100 when the
    models agree, never 0), and ``gap_pct`` is ``100 * max|r - 1|``.
    """
    ratios = {}
    for config, technology in YIELD_PAIRS:
        spec = YieldFleet.spec(config, technology, SETUP_SEED)
        fleet = mc.run_yield_campaign(spec, 1, jobs=1).nominal_fmax
        ratios[f"{config.name}@{technology}"] = (
            fleet / sweep.evaluate_design(config, technology).fmax
        )
    gap_pair = max(ratios, key=lambda pair: abs(ratios[pair] - 1.0))
    return {
        "agreement_pct": 100.0 * min(min(r, 1.0 / r) for r in ratios.values()),
        "gap_pct": 100.0 * abs(ratios[gap_pair] - 1.0),
        "gap_pair": gap_pair,
        "ratios": ratios,
    }
