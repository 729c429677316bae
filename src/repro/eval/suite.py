"""Whole-suite system evaluation: the Figure 8 / Table 8 grid.

One call evaluates every benchmark version on every runnable
single-stage core, in every requested printed technology -- the full
grid behind Figure 8's subplots and Table 8's columns.  Each grid cell
(one benchmark version in one technology) is an independent unit of
work, so :func:`evaluate_suite` fans cells out across worker processes
via :func:`repro.exec.parallel_map`; results come back in grid order
and are bit-exact against the serial run.

:func:`verify_suite` gate-level-verifies every native-width
benchmark against the instruction-set simulator, packing all programs
that share a core configuration into the lanes of *one* numpy
bit-slice simulation (:func:`repro.verify.differential.lane_verify`)
-- a few kernel streams for the whole suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.coregen.config import CoreConfig
from repro.errors import SimulationError
from repro.eval.figures import fig8_benchmark
from repro.eval.system import SystemMetrics
from repro.exec import parallel_map
from repro.netlist.nsim import NumpySimulator
from repro.pdk import canonical_technology
from repro.programs.suite import BENCHMARKS, build_benchmark

#: Technologies evaluated by default (both printed processes).
DEFAULT_TECHNOLOGIES = ("EGFET", "CNT")


@dataclass(frozen=True)
class SuiteResult:
    """One grid cell: a benchmark version in one technology.

    ``metrics`` holds one :class:`SystemMetrics` per runnable
    single-stage core, ending with the program-specific system when
    the benchmark runs at its native width -- exactly the bars of one
    Figure 8 subplot.
    """

    program: str
    kernel_width: int
    technology: str
    metrics: tuple[SystemMetrics, ...]


def suite_grid(
    technologies: tuple[str, ...] = DEFAULT_TECHNOLOGIES,
) -> list[tuple[str, int, str]]:
    """Deterministic cell order: registry order x widths x technologies."""
    return [
        (name, kernel_width, canonical_technology(technology))
        for name, spec in BENCHMARKS.items()
        for kernel_width in spec.kernel_widths
        for technology in technologies
    ]


def _suite_cell(cell: tuple[str, int, str]) -> SuiteResult:
    """Worker entry: evaluate one grid cell (module-level for pickling)."""
    name, kernel_width, technology = cell
    return SuiteResult(
        program=name,
        kernel_width=kernel_width,
        technology=technology,
        metrics=tuple(fig8_benchmark(name, kernel_width, technology)),
    )


def verify_groups() -> list[tuple[CoreConfig, list[str], list]]:
    """Native-width benchmarks grouped by core configuration.

    Every benchmark version that runs at its native width (core width
    == kernel width) lands in the group of the single-stage core that
    executes it; one group therefore becomes one lane-packed
    simulation in :func:`verify_suite`.
    """
    by_width: dict[int, tuple[list[str], list]] = {}
    for name, spec in BENCHMARKS.items():
        for width in spec.kernel_widths:
            if not spec.supports(width, width):
                continue
            names, programs = by_width.setdefault(width, ([], []))
            names.append(f"{name}{width}")
            programs.append(build_benchmark(name, width, width))
    return [
        (CoreConfig(datawidth=width, num_bars=2), names, programs)
        for width, (names, programs) in sorted(by_width.items())
    ]


def verify_suite() -> dict[str, int]:
    """Gate-level-verify every native benchmark against the ISS.

    All programs sharing a core configuration are packed into the
    lanes of *one* numpy lane simulation, so the whole suite costs
    one gate-level pass per core width.

    Returns:
        ``{config_name: programs_verified}`` for each core swept.

    Raises:
        SimulationError: If any lane disagrees with the ISS, listing
            every mismatching benchmark and its divergence details.
    """
    from repro.verify.differential import lane_verify

    verified: dict[str, int] = {}
    failures: list[str] = []
    with obs.span("verify_suite", backend="numpy"):
        for config, names, programs in verify_groups():
            reports = lane_verify(programs, config, simulator=NumpySimulator)
            for name, details in zip(names, reports):
                if details:
                    shown = "; ".join(details[:4])
                    failures.append(f"{name} @ {config.name}: {shown}")
            verified[config.name] = len(programs)
    if failures:
        raise SimulationError(
            "suite verification failed: " + " | ".join(failures)
        )
    return verified


def evaluate_suite(
    technologies: tuple[str, ...] = DEFAULT_TECHNOLOGIES,
    jobs: int | None = None,
) -> list[SuiteResult]:
    """Evaluate the full Figure 8 / Table 8 grid.

    Args:
        technologies: Printed technologies to evaluate (aliases accepted).
        jobs: Worker processes (``None`` defers to ``--jobs`` /
            ``REPRO_JOBS`` / serial).  Output order and values are
            identical for any job count.
    """
    cells = suite_grid(technologies)
    with obs.span("evaluate_suite", cells=len(cells)):
        return parallel_map(_suite_cell, cells, jobs=jobs, label="evaluate_suite")
