"""Tests of the benchmark harness itself (outside the tier-1 suite).

    python3 -m pytest perfbench/tests -q

Workloads run here at tiny size: one op kind each, one set-up, one round.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
import repro.coregen.fault_test
import repro.mc.engine
import repro.mc.fyield
import repro.mc.timing
from repro.coregen.config import CoreConfig
from repro.sim.machine import Machine
from repro.verify import differential
from repro.verify.corpus import CampaignResult, CaseResult

from perfbench import run, tracing
from perfbench.tracing import MARKER, TARGETS, Target, Tracer
from perfbench.workloads import WORKLOADS, PaperDse, VerifyFuzz, Workload, YieldFleet

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    if name == "paper_dse":
        return PaperDse(
            points=[(CoreConfig(datawidth=4), "EGFET")], cells=[("tHold", 8, "CNT")]
        )
    if name == "yield_fleet":
        return YieldFleet(pairs=[(CoreConfig(datawidth=4), "CNT")])
    return VerifyFuzz(configs=[CoreConfig(datawidth=8)])


def bindings() -> dict:
    """Every callable bound in a loaded repro module, and the traced methods."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(module).items():
                if callable(value):
                    seen[(name, attr)] = value
    for target in TARGETS:
        if "." in target.attr:
            class_name, method = target.attr.split(".")
            cls = getattr(sys.modules[target.module], class_name)
            seen[(target.module, target.attr)] = cls.__dict__[method]
    return seen


def test_benchmark_json_matches_the_metrics_printed():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: WORKLOADS[name].why for name in run.WORKLOAD_NAMES
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_end_to_end_metric(name, tmp_path):
    result, report = run.measure(tiny(name), 3, 0.0, tmp_path, setup_reps=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    agreement = report["fmax_agreement_pct"]
    assert 0 < agreement <= 100
    assert 100 - agreement <= report["fmax_gap_pct"] + 1e-9
    assert report["host"]["workers"] == 1 and report["digest"]["ops"] >= 1


def _doctor_point(point):
    # One ulp of area: a correct model can never return this.
    return dataclasses.replace(point, area=point.area * (1 + 2**-52))


def _doctor_report(report):
    return dataclasses.replace(report, working_defective=report.defective + 1)


def _doctor_case(result):
    case = CaseResult(seed=0, config_name="p1_8_2", divergences=("[numpy] mem[0]",))
    return CampaignResult(cases=[case])


@pytest.mark.parametrize("name, doctor", [
    ("paper_dse", _doctor_point),
    ("yield_fleet", _doctor_report),
    ("verify_fuzz", _doctor_case),
])
def test_doctored_op_result_is_counted_failed(name, doctor, monkeypatch):
    workload = tiny(name)
    if name == "paper_dse":
        workload.ops = workload.ops[:1]
    workload.prepare()
    execute = workload.execute
    monkeypatch.setattr(workload, "execute", lambda op: doctor(execute(op)))
    records, _ = run.run_rounds(workload, 5, 0.0)
    assert records and all(record.failure for record in records)
    assert all(record.work == 0 for record in records)


def test_paper_dse_rejects_a_non_positive_value():
    workload = tiny("paper_dse")
    workload.prepare()
    op = workload.ops[0]
    point = workload.execute(op)
    assert workload.check(op, point) is None
    assert "fmax" in workload.check(op, dataclasses.replace(point, fmax=0.0))


def test_yield_check_needs_monotone_fmax_quantiles():
    workload = tiny("yield_fleet")
    spec = next(workload.rounds(1))[0]
    report = workload.execute(spec)
    flipped = dict(zip(sorted(report.fmax_quantiles), sorted(report.fmax_quantiles.values(), reverse=True)))
    assert workload.check(spec, report) is None
    assert workload.check(spec, dataclasses.replace(report, fmax_quantiles=flipped))


def test_traced_run_restores_every_binding(tmp_path):
    before = bindings()
    result, report = run.measure(tiny("yield_fleet"), 1, 0.0, tmp_path, trace=True, setup_reps=1)
    result_v, _ = run.measure(tiny("verify_fuzz"), 1, 0.0, tmp_path / "v", trace=True, setup_reps=1)
    after = bindings()
    assert all(after[key] is value for key, value in before.items())
    assert not [key for key, value in after.items() if hasattr(value, MARKER)]
    assert repro.mc.engine.sample_delays is repro.mc.timing.sample_delays
    assert not hasattr(Machine.run, MARKER)
    for metrics in (result["metrics"], result_v["metrics"]):
        assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    layers = result["metrics"]
    assert layers["netlist.nsim.lanes_s"]["value"] > 0
    assert layers["mc.sampling.self_s"]["value"] > 0
    assert layers["mc.fyield.lane_efficiency"]["value"] == pytest.approx(1.0)
    assert result_v["metrics"]["netlist.sim.cosim_s"]["value"] > 0
    assert result_v["metrics"]["netlist.compile.lanes_s"]["value"] > 0
    assert report["traced_ops"] >= 1
    assert report["trace_skipped"] == []


def test_lane_efficiency_drops_when_bisection_reruns_lanes(tmp_path, monkeypatch):
    original = repro.coregen.fault_test.lane_signatures

    def wedging(program, config, cycles, fault_sets, context=None):
        # A batch of four or more lanes wedges, so safe_signatures bisects.
        if len(fault_sets) >= 4:
            raise RuntimeError("wedged batch")
        return original(program, config, cycles, fault_sets, context)

    for module in (repro.coregen.fault_test, repro.mc.fyield):
        monkeypatch.setattr(module, "lane_signatures", wedging)
    result, _ = run.measure(tiny("yield_fleet"), 1, 0.0, tmp_path, trace=True, setup_reps=1)
    assert result["correct"]
    assert 0 < result["metrics"]["mc.fyield.lane_efficiency"]["value"] < 1


def test_missing_entry_point_is_listed_not_traced(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", TARGETS + (Target("repro.sim", "gone", "x_s"),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.skipped == {"repro.sim.gone"}


def test_verify_digest_covers_the_simulated_run(monkeypatch):
    workload = tiny("verify_fuzz")
    op = next(workload.rounds(2))[0]
    result = workload.execute(op)
    text = workload.digest_text(op, result)
    assert text == workload.digest_text(op, result)
    reference = differential.iss_reference

    def doctored(program, config, *args, **kwargs):
        machine = reference(program, config, *args, **kwargs)
        machine.memory[0] ^= 1
        return machine

    monkeypatch.setattr(differential, "iss_reference", doctored)
    assert workload.digest_text(op, result) != text


def test_untraced_run_imports_and_patches_nothing(tmp_path):
    script = f"""
import sys
sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]
from pathlib import Path
from perfbench import run
run.isolate(Path({str(tmp_path)!r}))
from perfbench.workloads import VerifyFuzz
from repro.coregen.config import CoreConfig
result, _ = run.measure(VerifyFuzz(configs=[CoreConfig(datawidth=8)]), 0, 0.0,
                        Path({str(tmp_path)!r}), setup_reps=1)
marked = [
    (name, attr) for name, module in list(sys.modules.items())
    if module is not None and name.startswith("repro")
    for attr, value in vars(module).items() if hasattr(value, "_perfbench_layer")
]
print("perfbench.tracing" in sys.modules, marked, result["correct"])
"""
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split("\n")[-2] == "False [] True"


def test_tail_has_ten_slower_ops():
    records = [run.OpRecord(i, 0, float(i), 1, None, "") for i in range(30)]
    timing = run.latency_metrics(records)
    assert timing["op_tail_s"] == 19.0
    assert timing["tail_percentile"] == pytest.approx(100 * 20 / 30)
    assert timing["rounds"] == 30
    assert timing["mean_work_per_s"] == pytest.approx(30 / sum(range(30)))


def test_each_op_kind_is_timed_at_its_90th_percentile():
    # Ten rounds of three kinds; the 90th percentile of 1..10 is 9.1.
    latencies = {0: range(1, 11), 1: range(11, 21), 2: [100.0] * 10}
    records = [
        run.OpRecord(index, slot, float(latency), 2, None, "")
        for slot, values in latencies.items()
        for index, latency in enumerate(values)
    ]
    timing = run.latency_metrics(records)
    assert timing["op_p90_s"] == pytest.approx((9.1 * 19.1 * 100.0) ** (1 / 3))
    assert timing["work_per_s"] == pytest.approx(6 / (9.1 + 19.1 + 100.0))

    # Ops run twice as fast in eight rounds of ten (the host's
    # uncontended state): neither metric moves, where the mean does.
    faster = [
        dataclasses.replace(record, latency=record.latency / 2)
        if record.round < 8 else record
        for record in records
    ]
    timing_faster = run.latency_metrics(faster)
    assert timing_faster["work_per_s"] == pytest.approx(timing["work_per_s"])
    assert timing_faster["op_p90_s"] == pytest.approx(timing["op_p90_s"])
    assert timing_faster["mean_work_per_s"] > timing["mean_work_per_s"]


def test_peak_rss_is_read_at_the_end_of_the_digest_rounds(monkeypatch):
    class ThreeRounds(Workload):
        digest_rounds = 2

        def rounds(self, seed):
            yield from (["op"] for _ in range(3))

        def execute(self, op):
            return op

        def work(self, result):
            return 1

        def check(self, op, result):
            return None

    # ru_maxrss (KiB) as it would grow: one reading per round.
    readings = iter([100 * 1024, 200 * 1024, 300 * 1024])
    monkeypatch.setattr(run.resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=next(readings)))
    records, peak_rss_mb = run.run_rounds(ThreeRounds(), 0, 60.0)
    assert len(records) == 3
    assert peak_rss_mb == 200.0


def test_refuses_to_run_without_repro_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_dse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
