"""The Figure 7 sweep: datawidth x pipeline depth x BAR count.

Each of the 24 configurations is elaborated to a netlist and measured
(area with its combinational/register split, fmax, power at fmax) in
either printed technology.

Technology names normalize at this API boundary (``"CNT-TFT"`` is an
accepted alias of canonical ``"CNT"``), so the evaluation cache never
splits on spelling and :attr:`DesignPoint.technology` always holds the
canonical name.

A core's analysis (:func:`core_reports`) is memoized per (core,
technology) and shared with the Figure 8 / Table 8 system evaluation,
so each core is analysed once per technology whichever driver asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import obs
from repro.coregen.config import CoreConfig, standard_sweep
from repro.coregen.generator import generate_core
from repro.netlist.power import PowerReport, power_report
from repro.netlist.sta import TimingReport, timing_report
from repro.netlist.stats import AreaReport, area_report
from repro.pdk import canonical_technology, technology_library

_EVALUATIONS = obs.counter("dse.evaluations")
_CACHE_HITS = obs.counter("dse.evaluate_cache_hits")


@dataclass(frozen=True)
class DesignPoint:
    """One measured sweep configuration (Figure 7 bar group)."""

    config: CoreConfig
    technology: str
    fmax: float
    area: float
    combinational_area: float
    sequential_area: float
    power_at_fmax: float
    combinational_power: float
    sequential_power: float
    gate_count: int
    dff_count: int

    @property
    def name(self) -> str:
        return self.config.name


@dataclass(frozen=True)
class CoreReports:
    """The one area, power and timing analysis of a core in a technology."""

    area: AreaReport
    power: PowerReport
    timing: TimingReport


def core_reports(config: CoreConfig, technology: str = "EGFET") -> CoreReports:
    """Elaborate and analyse one core in one technology (memoized).

    Every driver reads a core's area, power and timing here: Figure 7's
    :func:`evaluate_design` and the Figure 8 / Table 8 systems
    (:func:`repro.eval.system.compose_system`), so a core has one fmax
    and one energy whichever asks first.  Cached per (config, canonical
    technology), like :func:`evaluate_design`.
    """
    return _core_reports(config, canonical_technology(technology))


@lru_cache(maxsize=256)
def _core_reports(config: CoreConfig, technology: str) -> CoreReports:
    library = technology_library(technology)
    netlist = generate_core(config)
    return CoreReports(
        area=area_report(netlist, library),
        power=power_report(netlist, library),
        timing=timing_report(netlist, library),
    )


def evaluate_design(config: CoreConfig, technology: str = "EGFET") -> DesignPoint:
    """Elaborate and measure one configuration (memoized).

    ``technology`` accepts canonical names and aliases; results are
    cached per (config, canonical technology), so
    ``evaluate_design(c, "CNT")`` and ``evaluate_design(c, "CNT-TFT")``
    share one entry.
    """
    technology = canonical_technology(technology)
    if obs.STATE.enabled:
        misses_before = _evaluate_design.cache_info().misses
        point = _evaluate_design(config, technology)
        if _evaluate_design.cache_info().misses == misses_before:
            _CACHE_HITS.inc()
        return point
    return _evaluate_design(config, technology)


@lru_cache(maxsize=256)
def _evaluate_design(config: CoreConfig, technology: str) -> DesignPoint:
    with obs.span("evaluate_design", design=config.name, technology=technology) as sp:
        _EVALUATIONS.inc()
        reports = _core_reports(config, technology)
        area, power, timing = reports.area, reports.power, reports.timing
        sp.note(fmax=timing.fmax, gates=area.gate_count)
        return DesignPoint(
            config=config,
            technology=technology,
            fmax=timing.fmax,
            area=area.total,
            combinational_area=area.combinational,
            sequential_area=area.sequential,
            power_at_fmax=power.power_at(timing.fmax),
            combinational_power=power.combinational_energy * timing.fmax,
            sequential_power=power.sequential_energy * timing.fmax,
            gate_count=area.gate_count,
            dff_count=area.dff_count,
        )


def _sweep_point(task: tuple[CoreConfig, str]) -> DesignPoint:
    """Worker entry for one sweep point (module-level for pickling)."""
    config, technology = task
    return evaluate_design(config, technology)


def sweep_design_space(
    technology: str = "EGFET", jobs: int | None = None
) -> list[DesignPoint]:
    """Measure all 24 Figure 7 configurations.

    ``jobs`` fans the configurations out across worker processes via
    :func:`repro.exec.parallel_map`; results come back in sweep order
    and are bit-exact against the serial run.
    """
    from repro.exec import parallel_map

    technology = canonical_technology(technology)
    with obs.span("sweep", technology=technology):
        tasks = [(config, technology) for config in standard_sweep()]
        return parallel_map(
            _sweep_point, tasks, jobs=jobs, label=f"sweep[{technology}]"
        )


def sweep_design_spaces(
    technologies: tuple[str, ...] = ("EGFET", "CNT"),
    jobs: int | None = None,
) -> dict[str, list[DesignPoint]]:
    """Sweep several technologies through one shared worker pool.

    Fans all configurations x technologies out together, so a
    multi-technology sweep keeps every worker busy instead of
    draining the pool between technologies.  Returns canonical
    technology name -> sweep-order points.
    """
    from repro.exec import parallel_map

    canon = [canonical_technology(t) for t in technologies]
    with obs.span("sweep_all", technologies=",".join(canon)):
        tasks = [
            (config, technology)
            for technology in canon
            for config in standard_sweep()
        ]
        points = parallel_map(_sweep_point, tasks, jobs=jobs, label="sweep_all")
    count = len(points) // len(canon) if canon else 0
    return {
        technology: points[index * count : (index + 1) * count]
        for index, technology in enumerate(canon)
    }
