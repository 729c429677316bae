"""Regeneration of the paper's figure data series (Figures 4-8).

Each ``figN_*`` function returns structured series suitable both for
test assertions and for plain-text printing by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.specs import BASELINE_SPECS
from repro.coregen.config import CoreConfig
from repro.dse.sweep import DesignPoint, sweep_design_space
from repro.eval.system import SystemMetrics, benchmark_system
from repro.isa.disasm import disassemble
from repro.isa.spec import Mnemonic, OP_TABLE
from repro.power.battery import PRINTED_BATTERIES
from repro.power.lifetime import lifetime_hours
from repro.programs import BENCHMARKS

#: Duty fractions swept on the Figure 4/5 x-axis.
DUTY_FRACTIONS = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


@dataclass(frozen=True)
class LifetimeSeries:
    """One (core, battery) lifetime-vs-duty curve."""

    core: str
    battery: str
    points: tuple[tuple[float, float], ...]  # (duty fraction, hours)


def fig4_lifetime(technology: str = "EGFET") -> list[LifetimeSeries]:
    """Figures 4 (EGFET) / 5 (CNT-TFT): legacy-core battery lifetime
    vs duty cycle for the four printed batteries."""
    series = []
    for spec in BASELINE_SPECS.values():
        active_power = spec.point(technology).power
        for battery in PRINTED_BATTERIES:
            points = tuple(
                (fraction, lifetime_hours(battery, active_power, fraction))
                for fraction in DUTY_FRACTIONS
            )
            series.append(
                LifetimeSeries(core=spec.name, battery=battery.name, points=points)
            )
    return series


def fig5_lifetime() -> list[LifetimeSeries]:
    """Figure 5 is Figure 4 in the CNT-TFT technology."""
    return fig4_lifetime("CNT-TFT")


def fig6_isa_listing() -> list[tuple[str, str, str]]:
    """Figure 6: one row per instruction: mnemonic, format, control
    bits (W C A B), rendered through the disassembler's syntax."""
    rows = []
    for mnemonic, spec in OP_TABLE.items():
        control = f"{spec.w}{spec.c}{spec.a}{spec.b}"
        rows.append((mnemonic.value, f"{spec.fmt}-type", control))
    return rows


def fig7_design_space(technology: str = "EGFET") -> list[DesignPoint]:
    """Figure 7: fmax/area/power over the 24-point sweep."""
    return sweep_design_space(technology)


#: The core configurations whose bars Figure 8 shows (single-stage).
FIG8_CORES = (
    CoreConfig(datawidth=4, num_bars=2),
    CoreConfig(datawidth=4, num_bars=4),
    CoreConfig(datawidth=8, num_bars=2),
    CoreConfig(datawidth=8, num_bars=4),
    CoreConfig(datawidth=16, num_bars=2),
    CoreConfig(datawidth=16, num_bars=4),
    CoreConfig(datawidth=32, num_bars=2),
    CoreConfig(datawidth=32, num_bars=4),
)


def fig8_benchmark(
    name: str, kernel_width: int, technology: str = "EGFET"
) -> list[SystemMetrics]:
    """Figure 8, one subplot: every runnable single-stage core on one
    benchmark version, ending with the program-specific system."""
    spec = BENCHMARKS[name]
    results = []
    for config in FIG8_CORES:
        if not spec.supports(kernel_width, config.datawidth):
            continue
        if spec.uses_bars and config.num_bars < 2:
            continue
        results.append(benchmark_system(
            name, kernel_width, config.datawidth, config.num_bars, technology
        ))
    # Rightmost bar: the program-specific system at native width.
    if spec.supports(kernel_width, kernel_width):
        results.append(benchmark_system(
            name, kernel_width, kernel_width, technology=technology,
            program_specific=True,
        ))
    return results


def fig8_dtree_romopt(technology: str = "EGFET") -> tuple[SystemMetrics, SystemMetrics]:
    """The dTree-ROMopt comparison: 1-bit vs 2-bit MLC instruction ROM."""
    base = benchmark_system("dTree", 8, 8, technology=technology)
    optimized = benchmark_system(
        "dTree", 8, 8, technology=technology, rom_bits_per_cell=2
    )
    return base, optimized
