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
  on those two cores, interpreted and compiled.

A change that alters a pinned result re-records the computed sections
on purpose (``PYTHONPATH=src python -m tests.test_result_pins designs
placement yield campaigns toggles``) and says which entries moved.
"""

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.coregen.config import config_from_name, standard_sweep
from repro.coregen.cosim import CoSimHarness, run_to_halt
from repro.coregen.fault_test import run_fault_campaign
from repro.coregen.generator import generate_core
from repro.dse.sweep import DesignPoint, evaluate_design
from repro.mc import YieldSpec, run_yield_campaign
from repro.netlist.sta import timing_report
from repro.pdk import technology_library
from repro.place import named_fabric, place, rc_annotation
from repro.programs import build_benchmark

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


DESIGNS = [f"{c.name}@{t}" for c in standard_sweep() for t in TECHNOLOGIES]
CAMPAIGN_CORES = ("p1_8_2", "p3_8_2")
TOGGLE_RUNS = [
    f"{core}@{backend}"
    for core in CAMPAIGN_CORES
    for backend in ("interpreted", "compiled")
]


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


def _record(sections: list[str]) -> None:
    """Re-record the named computed sections of the pin file."""
    import platform

    import numpy

    compute = {
        "designs": lambda: {name: design_pin(name) for name in DESIGNS},
        "placement": placement_pin,
        "yield": lambda: {t: yield_pin(t) for t in TECHNOLOGIES},
        "campaigns": lambda: {c: campaign_pin(c) for c in CAMPAIGN_CORES},
        "toggles": lambda: {run: toggle_pin(run) for run in TOGGLE_RUNS},
    }
    pins = json.loads(PINS_PATH.read_text())
    for section in sections:
        pins[section] = compute[section]()
    pins["platform"] = {
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "system": platform.system(),
    }
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record(
        sys.argv[1:] or ["designs", "placement", "yield", "campaigns", "toggles"]
    )
