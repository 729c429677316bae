"""Result pins: what the CLI prints and writes, and the numbers behind it.

The bit-exact guards elsewhere compare one path with another, so a
change made to both sides in lockstep passes them.  These pins hold
the results themselves at default inputs:

* SHA-256 digests of ``repro all`` stdout, every ``repro export``
  artifact, ``repro lint`` stdout and a two-seed ``repro verify`` run;
* ``designs``: every :class:`~repro.dse.sweep.DesignPoint` field of
  the 24 Figure 7 configs in both technologies at full precision, plus
  each core's critical path, its depth and the pessimistic-STA fmax --
  IEEE mul/add/max/div only, so exact on any platform;
* ``placement``: p1_8_2 annealed on the ``small`` EGFET fabric at
  seed 0 -- HPWL, wire-aware fmax and critical path -- with floats at
  12 significant digits (annealing goes through libm ``exp``);
* ``yield``: one 2048-unit p1_8_2 campaign per technology, integers
  exact and floats at 12 significant digits (sampling goes through
  numpy ``log``/``cos``/``exp``);
* ``campaigns``: a full-stride numpy fault campaign of mult8 on p1_8_2
  and p3_8_2 -- total, detected and a SHA-256 of the undetected sites;
* ``toggles``: a SHA-256 of ``toggle_counts()`` after crc8 runs to halt
  on those two cores (interpreted: the only simulator that counts
  toggles);
* ``iss``: the instruction-set simulator's final ``pc``, ``flags``,
  ``bars``, ``halted``, a SHA-256 of ``memory`` and every
  :class:`~repro.sim.machine.ExecutionStats` field, for every program
  version ``fig8_benchmark`` runs and for verify seeds 0-11 on the
  default verify configs -- integers only, so exact;
* ``suite``: every :class:`~repro.eval.system.SystemMetrics` field of
  the Figure 8 suite cells and the dTree-ROMopt pair per technology
  (integers exact, floats at 12 significant digits: ROM sizing goes
  through ``math.log2``), and the Table 8 battery-iteration rows;
* ``netlists``: for each of the 40 cores a ``paper_dse`` pass loads
  (the 24 sweep cores and the 16 program-specific suite cores), a
  SHA-256 of the output nets in ``topological_order``, of every cell's
  logic level (-1 for sequential cells) and of the numpy row layout.

A change that alters a pinned result re-records the computed sections
on purpose (``PYTHONPATH=src python -m tests.test_result_pins designs
placement yield campaigns toggles iss suite netlists``) and says which entries
moved.  An unknown section name lists the valid ones and exits 2.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.coregen.config import config_from_name, standard_sweep
from repro.coregen.cosim import CoSimHarness, run_to_halt
from repro.coregen.fault_test import run_fault_campaign
from repro.coregen.generator import generate_core
from repro.dse.sweep import DesignPoint, evaluate_design
from repro.eval.figures import FIG8_CORES, fig8_benchmark, fig8_dtree_romopt
from repro.eval.suite import suite_grid
from repro.eval.system import benchmark_run
from repro.eval.tables import table8_battery_iterations
from repro.mc import YieldSpec, run_yield_campaign
from repro.netlist.nsim import compile_numpy_netlist, topological_order
from repro.netlist.sta import timing_report
from repro.pdk import technology_library
from repro.place import named_fabric, place, rc_annotation
from repro.programs import BENCHMARKS, build_benchmark
from repro.sim.machine import ExecutionStats, Machine
from repro.verify import DEFAULT_CONFIGS, random_program
from repro.verify.differential import iss_reference

PINS_PATH = Path(__file__).parent / "data" / "result_pins.json"
PINS = json.loads(PINS_PATH.read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def quiet_obs(monkeypatch):
    """A profiled run appends a run report to stdout; pin the plain one."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    obs.disable()
    yield
    obs.disable()


@pytest.mark.parametrize("command", sorted(PINS["stdout"]))
def test_stdout_matches_pin(command, quiet_obs, capsys):
    capsys.readouterr()
    assert main(command.split()) == 0
    digest = _sha256(capsys.readouterr().out.encode())
    assert digest == PINS["stdout"][command], (
        f"`repro {command}` stdout changed (pins recorded on "
        f"{PINS['platform']})"
    )


def test_export_artifacts_match_pins(quiet_obs, tmp_path, capsys):
    target = tmp_path / "out"
    assert main(["export", str(target)]) == 0
    capsys.readouterr()
    written = {
        path.relative_to(target).as_posix(): _sha256(path.read_bytes())
        for path in sorted(target.rglob("*"))
        if path.is_file()
    }
    assert written == PINS["export"], (
        f"export artifacts changed (pins recorded on {PINS['platform']})"
    )


TECHNOLOGIES = ("EGFET", "CNT")
#: Host-time fields of a yield report: they differ run to run.
_HOST_FIELDS = ("instances_per_second", "wall_seconds", "jobs")


def _digits(value):
    """Floats at 12 significant digits, everything else as is."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        return {str(key): _digits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_digits(item) for item in value]
    return value


def design_pin(name: str) -> dict:
    """One ``<config>@<technology>`` entry of the ``designs`` section."""
    config_name, technology = name.split("@")
    config = config_from_name(config_name)
    point = evaluate_design(config, technology)
    netlist = generate_core(config)
    library = technology_library(technology)
    timing = timing_report(netlist, library)
    pin = {
        field.name: getattr(point, field.name)
        for field in fields(DesignPoint)
        if field.name != "config"
    }
    pin["critical_path"] = " ".join(timing.critical_path)
    pin["levels"] = timing.levels
    pin["pessimistic_fmax"] = timing_report(netlist, library, pessimistic=True).fmax
    # A JSON round trip is exact for floats; compare in that form.
    return json.loads(json.dumps(pin))


def placement_pin() -> dict:
    netlist = generate_core(config_from_name("p1_8_2"))
    library = technology_library("EGFET")
    placement = place(netlist, named_fabric("small", technology="EGFET"), seed=0)
    timing = timing_report(
        netlist, library, rc=rc_annotation(netlist, placement, library)
    )
    return _digits({
        "design": "p1_8_2@EGFET small seed 0",
        "hpwl": placement.hpwl,
        "fmax": timing.fmax,
        "critical_path": " ".join(timing.critical_path),
    })


def yield_pin(technology: str) -> dict:
    spec = YieldSpec(
        config=config_from_name("p1_8_2"), technology=technology,
        sigma=0.2, device_yield=0.99995, seed=0,
    )
    view = run_yield_campaign(spec, 2048, jobs=1).to_dict()
    for field in _HOST_FIELDS:
        view.pop(field)
    return _digits(view)


def campaign_pin(config_name: str) -> dict:
    """A full-stride numpy fault campaign of mult8 on one core."""
    campaign = run_fault_campaign(
        build_benchmark("mult", 8, 8), config_from_name(config_name),
        stride=1, backend="numpy", jobs=1,
    )
    sites = [[f.instance_index, f.stuck_value] for f in campaign.undetected_sites]
    return {
        "total": campaign.total,
        "detected": campaign.detected,
        "undetected_sites": _sha256(json.dumps(sites).encode()),
    }


def toggle_pin(name: str) -> str:
    """Toggle counts after crc8 runs to halt, ``<config>@<backend>``."""
    config_name, backend = name.split("@")
    harness = CoSimHarness(
        build_benchmark("crc8", 8, 8), config_from_name(config_name),
        backend=backend,
    )
    run_to_halt(harness)
    counts = sorted(harness.sim.toggle_counts().items())
    return _sha256(json.dumps(counts).encode())


def machine_pin(machine: Machine) -> dict:
    """Final architectural state and every statistic of a finished run."""
    stats = {
        field.name: getattr(machine.stats, field.name)
        for field in fields(ExecutionStats)
    }
    stats["mnemonic_counts"] = dict(sorted(stats["mnemonic_counts"].items()))
    # Sorted, on one line: a few hundred runs each touch up to 256 words.
    stats["touched_addresses"] = ",".join(
        str(address) for address in sorted(stats["touched_addresses"])
    )
    return {
        "pc": machine.pc,
        "flags": machine.flags,
        "bars": list(machine.bars),
        "halted": machine.halted,
        "memory": _sha256(json.dumps(machine.memory).encode()),
        "stats": stats,
    }


def _fig8_iss_runs() -> dict:
    """``<benchmark><kernel width>@<core>`` -> (program, BARs) for every
    program version ``fig8_benchmark`` hands the ISS; ``@native`` is the
    program-specific system's."""
    runs = {}
    for name, spec in BENCHMARKS.items():
        for kernel_width in spec.kernel_widths:
            for config in FIG8_CORES:
                if not spec.supports(kernel_width, config.datawidth):
                    continue
                if spec.uses_bars and config.num_bars < 2:
                    continue
                program = build_benchmark(
                    name, kernel_width, config.datawidth, num_bars=config.num_bars
                )
                runs[f"{name}{kernel_width}@{config.name}"] = (program, config.num_bars)
            if spec.supports(kernel_width, kernel_width):
                program = build_benchmark(name, kernel_width, kernel_width)
                runs[f"{name}{kernel_width}@native"] = (
                    program, max(2, program.num_bars),
                )
    return runs


FIG8_ISS_RUNS = _fig8_iss_runs()
VERIFY_SEEDS = range(12)
VERIFY_ISS_RUNS = {
    f"verify{seed}@{config.name}": (seed, config)
    for seed in VERIFY_SEEDS
    for config in DEFAULT_CONFIGS
}


def iss_pin(name: str) -> dict:
    """One entry of the ``iss`` section."""
    if name in VERIFY_ISS_RUNS:
        seed, config = VERIFY_ISS_RUNS[name]
        program = random_program(
            seed, datawidth=config.datawidth, num_bars=config.num_bars
        )
        return machine_pin(iss_reference(program, config))
    program, num_bars = FIG8_ISS_RUNS[name]
    machine = Machine(program, num_bars=num_bars)
    machine.run()
    return machine_pin(machine)


def _rows(metrics) -> list:
    return [_digits(asdict(row)) for row in metrics]


SUITE_CELLS = {
    f"{name}{kernel_width}@{technology}": (name, kernel_width, technology)
    for name, kernel_width, technology in suite_grid()
}


def suite_pin(name: str) -> list:
    """Every Figure 8 row of one suite cell, ``dTree-ROMopt@<technology>``
    for the ROM comparison, or ``table8`` for the battery iterations."""
    if name == "table8":
        return [list(row) for row in table8_battery_iterations()[1]]
    if name.startswith("dTree-ROMopt@"):
        return _rows(fig8_dtree_romopt(name.split("@")[1]))
    return _rows(fig8_benchmark(*SUITE_CELLS[name]))


def _netlist_cores() -> dict:
    """``<name>`` -> config of every core a ``paper_dse`` pass analyses:
    the sweep cores by name, then each distinct program-specific core
    of the suite cells as ``<benchmark><kernel width>_ps``."""
    cores = {config: config.name for config in standard_sweep()}
    for name, kernel_width, _ in suite_grid():
        if BENCHMARKS[name].supports(kernel_width, kernel_width):
            config = benchmark_run(name, kernel_width, kernel_width).specific_config
            cores.setdefault(config, f"{name}{kernel_width}_ps")
    return {name: config for config, name in cores.items()}


NETLIST_CORES = _netlist_cores()


def _ints_digest(values) -> str:
    return _sha256(",".join(str(int(value)) for value in values).encode())


def netlist_pin(name: str) -> dict:
    """Order, levels and numpy row layout of one core's netlist."""
    netlist = generate_core(NETLIST_CORES[name])
    order = topological_order(netlist)
    level_of = [-1] * netlist.net_count  # sources sit below level 0
    for instance in order:
        level_of[instance.output] = 1 + max(level_of[net] for net in instance.inputs)
    comb = {instance.output for instance in order}
    layout = compile_numpy_netlist(netlist).layout
    rows = [layout.row_of[net] for net in range(netlist.net_count)]
    rows += [layout.rows, layout.source_rows]
    rows += [bound for level in layout.level_slices for bound in level]
    return {
        "order": _ints_digest(instance.output for instance in order),
        "levels": _ints_digest(
            level_of[i.output] if i.output in comb else -1
            for i in netlist.instances
        ),
        "rows": _ints_digest(rows),
    }


SUITE_ENTRIES = [
    *SUITE_CELLS,
    *(f"dTree-ROMopt@{technology}" for technology in TECHNOLOGIES),
    "table8",
]
ISS_RUNS = [*FIG8_ISS_RUNS, *VERIFY_ISS_RUNS]
DESIGNS = [f"{c.name}@{t}" for c in standard_sweep() for t in TECHNOLOGIES]
CAMPAIGN_CORES = ("p1_8_2", "p3_8_2")
TOGGLE_RUNS = [f"{core}@interpreted" for core in CAMPAIGN_CORES]


@pytest.mark.parametrize("name", DESIGNS)
def test_design_point_matches_pin(name):
    assert design_pin(name) == PINS["designs"][name]


def test_placement_matches_pin():
    assert placement_pin() == PINS["placement"], (
        f"placement changed (pinned on {PINS['platform']})"
    )


@pytest.mark.parametrize("technology", TECHNOLOGIES)
def test_yield_campaign_matches_pin(technology):
    assert yield_pin(technology) == PINS["yield"][technology], (
        f"yield campaign changed (pinned on {PINS['platform']})"
    )


@pytest.mark.parametrize("config_name", CAMPAIGN_CORES)
def test_fault_campaign_matches_pin(config_name):
    assert campaign_pin(config_name) == PINS["campaigns"][config_name]


@pytest.mark.parametrize("name", TOGGLE_RUNS)
def test_toggle_counts_match_pin(name):
    assert toggle_pin(name) == PINS["toggles"][name]


@pytest.mark.parametrize("name", ISS_RUNS)
def test_iss_run_matches_pin(name):
    assert iss_pin(name) == PINS["iss"][name]


@pytest.mark.parametrize("name", SUITE_ENTRIES)
def test_suite_cell_matches_pin(name):
    assert suite_pin(name) == PINS["suite"][name], (
        f"suite entry {name} changed (pinned on {PINS['platform']})"
    )


@pytest.mark.parametrize("name", NETLIST_CORES)
def test_netlist_structure_matches_pin(name):
    assert netlist_pin(name) == PINS["netlists"][name]


def test_unknown_section_lists_the_valid_ones():
    root = Path(__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "tests.test_result_pins", "designs", "bogus"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "unknown section bogus" in done.stderr
    assert "designs, placement, yield, campaigns, toggles, iss, suite" in done.stderr


#: How each computed section is re-recorded.
SECTIONS = {
    "designs": lambda: {name: design_pin(name) for name in DESIGNS},
    "placement": placement_pin,
    "yield": lambda: {t: yield_pin(t) for t in TECHNOLOGIES},
    "campaigns": lambda: {c: campaign_pin(c) for c in CAMPAIGN_CORES},
    "toggles": lambda: {run: toggle_pin(run) for run in TOGGLE_RUNS},
    "iss": lambda: {name: iss_pin(name) for name in ISS_RUNS},
    "suite": lambda: {name: suite_pin(name) for name in SUITE_ENTRIES},
    "netlists": lambda: {name: netlist_pin(name) for name in NETLIST_CORES},
}


def _record(sections: list[str]) -> None:
    """Re-record the named computed sections of the pin file."""
    import platform

    import numpy

    pins = json.loads(PINS_PATH.read_text())
    for section in sections:
        pins[section] = SECTIONS[section]()
    pins["platform"] = {
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "system": platform.system(),
    }
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    unknown = [section for section in sys.argv[1:] if section not in SECTIONS]
    if unknown:
        print(
            f"unknown section {', '.join(unknown)}; valid sections: "
            f"{', '.join(SECTIONS)}",
            file=sys.stderr,
        )
        sys.exit(2)
    _record(sys.argv[1:] or list(SECTIONS))
