"""Regeneration of every table in the paper (Tables 1-8).

Each ``tableN_*`` function returns ``(headers, rows)``; pair with
:func:`repro.eval.report.render_table` to print.  Where a table is pure
published data (process comparisons, application requirements) the
rows come from the corresponding catalogue module; where it is a
measurement the rows are computed live from the models.
"""

from __future__ import annotations

from repro.apps.requirements import APPLICATIONS
from repro.baselines.kernels import BASELINE_CORES, run_baseline
from repro.baselines.model import structural_report
from repro.baselines.specs import BASELINE_SPECS
from repro.coregen.config import CoreConfig
from repro.eval.system import benchmark_system
from repro.isa.analysis import analyze_program
from repro.memory.devices import EGFET_MEMORY_DEVICES
from repro.memory.ram import SramArray
from repro.pdk import cnt_tft_library, egfet_library
from repro.power.battery import REFERENCE_BUDGET_J
from repro.programs import BENCHMARKS, build_benchmark
from repro.sim.machine import Machine
from repro.units import (
    to_cm2, to_mm2, to_ms, to_mW, to_nJ, to_us, to_uW,
)

#: Table 1 rows: (process, route, operating voltage V, mobility cm^2/Vs).
PRINTED_TECHNOLOGIES = (
    ("EGFET", "Inkjet", "<1", 126.0),
    ("IOTFT", "Solution/inkjet", "40", 1.0),
    ("OTFT (Ramon)", "Inkjet", "30", 2e-4),
    ("OTFT (Chung)", "Inkjet", "50", 0.02),
    ("OTFT (Kang)", "Gravure-inkjet", "15", 1.0),
    ("Carbon Nanotube", "Solution/shadow mask", "1-2", 25.0),
    ("OTFT (Chang)", "Shadow mask", "5-10", 0.16),
    ("SAM OTFT", "Shadow mask", "2", 0.5),
    ("OTFT (Plassmeyer)", "Shadow mask", "20-40", 11.0),
)


def table1_technologies():
    """Table 1: printed/flexible technology comparison."""
    headers = ("Process", "Route", "Voltage [V]", "Mobility [cm2/Vs]")
    return headers, list(PRINTED_TECHNOLOGIES)


def table2_standard_cells():
    """Table 2: per-cell area/energy/delay for both libraries."""
    egfet = egfet_library()
    cnt = cnt_tft_library()
    headers = (
        "Cell", "Area mm2 (EGFET)", "Area mm2 (CNT)",
        "Energy nJ (EGFET)", "Energy nJ (CNT)",
        "Rise us (EGFET)", "Rise us (CNT)",
        "Fall us (EGFET)", "Fall us (CNT)",
    )
    rows = []
    for name in egfet.cells:
        e, c = egfet.cell(name), cnt.cell(name)
        rows.append((
            name,
            to_mm2(e.area), to_mm2(c.area),
            to_nJ(e.energy), to_nJ(c.energy),
            to_us(e.rise_delay), to_us(c.rise_delay),
            to_us(e.fall_delay), to_us(c.fall_delay),
        ))
    return headers, rows


def table3_applications():
    """Table 3: application requirements catalogue."""
    headers = ("Application", "Sample Rate (Hz)", "Precision (bits)", "Duty Cycle")
    rows = [
        (a.name, a.sample_rate_hz, a.precision_bits, a.duty_cycle.value)
        for a in APPLICATIONS
    ]
    return headers, rows


def table4_baseline_cores():
    """Table 4: baseline core characterization (published inputs plus
    the structural-model cross-check ratio)."""
    headers = (
        "CPU", "ISA", "CPI",
        "Fmax Hz (EGFET/CNT)", "Gates (EGFET/CNT)",
        "Area cm2 (EGFET/CNT)", "Power mW (EGFET/CNT)",
        "Model/published area (EGFET)",
    )
    rows = []
    for spec in BASELINE_SPECS.values():
        check = structural_report(spec, egfet_library())
        rows.append((
            spec.name,
            spec.isa,
            f"{spec.cpi_min}-{spec.cpi_max}",
            f"{spec.egfet.fmax:g}/{spec.cnt.fmax:g}",
            f"{spec.egfet.gate_count}/{spec.cnt.gate_count}",
            f"{to_cm2(spec.egfet.area):.2f}/{to_cm2(spec.cnt.area):.2f}",
            f"{to_mW(spec.egfet.power):.1f}/{to_mW(spec.cnt.power):.1f}",
            round(check.area_ratio, 2),
        ))
    return headers, rows


#: Table 5 benchmark order (the 16-bit inSort variant matches the
#: array-of-16 C kernels the paper compiled).
TABLE5_BENCHMARKS = ("mult", "div", "inSort16", "intAvg", "tHold", "crc8", "dTree")


def table5_imem_overhead():
    """Table 5: instruction-memory (EGFET RAM) overhead per benchmark,
    from our hand-written baseline kernels' static sizes."""
    headers = ["CPU"]
    for name in TABLE5_BENCHMARKS:
        headers += [f"{name} A cm2", f"{name} P mW"]
    rows = []
    for core in BASELINE_CORES:
        row = [core]
        for benchmark in TABLE5_BENCHMARKS:
            run = run_baseline(core, benchmark)
            ram = SramArray(words=run.size_bits, bits_per_word=1)
            row += [to_cm2(ram.area), to_mW(ram.worst_case_power)]
        rows.append(tuple(row))
    return tuple(headers), rows


def table6_memory_devices():
    """Table 6: EGFET memory-device characteristics."""
    headers = ("Component", "Area mm2", "Active Power uW", "Static Power uW", "Delay ms")
    rows = [
        (
            spec.name,
            to_mm2(spec.area),
            to_uW(spec.active_power),
            to_uW(spec.static_power),
            to_ms(spec.delay),
        )
        for spec in EGFET_MEMORY_DEVICES.values()
    ]
    return headers, rows


#: Table 7 rows are the native-width, 2-BAR benchmark variants.
TABLE7_BENCHMARKS = ("crc8", "div", "dTree", "inSort", "intAvg", "mult", "tHold")


def table7_program_specific():
    """Table 7: program-specific architectural state per benchmark."""
    headers = (
        "Benchmark", "PC Size", "BAR Size", "# of BARs", "# of flags",
        "Instruction Size",
    )
    rows = []
    for name in TABLE7_BENCHMARKS:
        program = build_benchmark(name, 8, 8)
        machine = Machine(program)
        machine.run()
        analysis = analyze_program(program, data_words=machine.stats.data_words_used())
        rows.append((
            name,
            analysis.pc_bits,
            analysis.bar_bits if analysis.bar_bits is not None else "N/A",
            analysis.num_bars,
            analysis.num_flags,
            f"{analysis.instruction_bits} bits",
        ))
    return headers, rows


def table8_battery_iterations():
    """Table 8: max iterations on a 1 V, 30 mAh battery, standard vs
    program-specific cores, per benchmark and kernel width."""
    headers = (
        "Benchmark",
        "8-bit STD", "8-bit PS",
        "16-bit STD", "16-bit PS",
        "32-bit STD", "32-bit PS",
    )
    rows = []
    for name, spec in BENCHMARKS.items():
        row = [name]
        for width in (8, 16, 32):
            if not spec.supports(width, width):
                row += ["", ""]
                continue
            for program_specific in (False, True):
                metrics = benchmark_system(
                    name, width, width, program_specific=program_specific
                )
                row.append(int(REFERENCE_BUDGET_J // metrics.total_energy))
        rows.append(tuple(row))
    return headers, rows
