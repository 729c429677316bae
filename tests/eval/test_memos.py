"""Each piece of the paper grid's work runs once, at its granularity.

* A benchmark version is built and run on the ISS once, for every
  technology and core it is evaluated on (``benchmark_run``).
* A core is analysed once per technology, whichever driver asks for
  it (``core_reports``): Figure 7's design point and a Figure 8 system
  on that core read one ``TimingReport``.
* ``repro.exec.clear_caches()`` empties both memos.
"""

import pytest

import repro.dse.sweep
import repro.eval.system
from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.dse.sweep import core_reports, evaluate_design
from repro.errors import ConfigError
from repro.eval.figures import fig8_benchmark
from repro.eval.system import benchmark_system
from repro.exec import clear_caches
from repro.pdk import technology_library
from repro.sim.machine import Machine


@pytest.fixture
def calls(monkeypatch):
    """Benchmark builds, ISS runs and timing reports, from a cold memo."""
    counts = {"builds": 0, "runs": 0, "sta": []}
    build, run = repro.eval.system.build_benchmark, Machine.run
    sta = repro.dse.sweep.timing_report

    def counting_build(*args, **kwargs):
        counts["builds"] += 1
        return build(*args, **kwargs)

    def counting_run(self, *args, **kwargs):
        counts["runs"] += 1
        return run(self, *args, **kwargs)

    def counting_sta(netlist, library, *args, **kwargs):
        counts["sta"].append((netlist.name, library.name))
        return sta(netlist, library, *args, **kwargs)

    monkeypatch.setattr(repro.eval.system, "build_benchmark", counting_build)
    monkeypatch.setattr(Machine, "run", counting_run)
    monkeypatch.setattr(repro.dse.sweep, "timing_report", counting_sta)
    clear_caches()
    try:
        yield counts
    finally:
        clear_caches()


def test_fig8_builds_and_runs_each_version_once(calls):
    egfet = fig8_benchmark("mult", 8, "EGFET")
    # The program-specific bar shrinks the native 2-BAR version.
    versions = {m.core_name for m in egfet if not m.program_specific}
    assert "p1_8_2" in versions and len(versions) == len(egfet) - 1
    assert calls["builds"] == calls["runs"] == len(versions)
    cnt = fig8_benchmark("mult", 8, "CNT")
    assert calls["builds"] == calls["runs"] == len(versions)
    assert [m.cycles for m in cnt] == [m.cycles for m in egfet]

    clear_caches()
    assert fig8_benchmark("mult", 8, "EGFET") == egfet
    assert calls["builds"] == calls["runs"] == 2 * len(versions)


def test_design_point_and_fig8_system_share_one_timing_report(calls):
    config = CoreConfig(datawidth=8)
    point = evaluate_design(config, "CNT")
    system = next(
        m for m in fig8_benchmark("mult", 8, "CNT-TFT")
        if m.core_name == config.name
    )
    timing = core_reports(config, "CNT").timing
    assert system.core_fmax is point.fmax is timing.fmax
    key = (generate_core(config).name, technology_library("CNT").name)
    assert calls["sta"].count(key) == 1
    assert len(calls["sta"]) == len(set(calls["sta"]))


def test_only_a_native_width_version_is_shrunk():
    assert benchmark_system("mult", 8, 8, program_specific=True).program_specific
    with pytest.raises(ConfigError, match="no program-specific analysis"):
        benchmark_system("mult", 8, 16, program_specific=True)
