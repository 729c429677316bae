"""Fleet campaign engine: shard invariance, report sanity, CLI."""

import json
from dataclasses import replace

import pytest

from repro.coregen.config import CoreConfig
from repro.mc import engine
from repro.mc.engine import YieldSpec, run_yield_campaign
from repro.mc.sketch import QuantileSketch

SPEC = YieldSpec(
    config=CoreConfig(datawidth=4),
    device_yield=0.9995,
    sigma=0.2,
    seed=13,
    block=256,  # several shards even for small fleets
)
INSTANCES = 1200


@pytest.fixture(scope="module")
def serial_report():
    return run_yield_campaign(SPEC, INSTANCES, jobs=1)


#: Report fields that may legitimately differ between runs (timing).
_VOLATILE = {"wall_seconds", "instances_per_second", "jobs"}


def _stable(report) -> dict:
    return {
        k: v for k, v in report.to_dict().items() if k not in _VOLATILE
    }


def test_jobs_invariance(serial_report):
    """jobs=1 == jobs=2: bit-exact sketches, tallies, and quantiles."""
    parallel = run_yield_campaign(SPEC, INSTANCES, jobs=2)
    assert _stable(parallel) == _stable(serial_report)


def test_shards_follow_block_not_jobs(serial_report):
    assert serial_report.shards == -(-INSTANCES // SPEC.block)


def test_report_internal_consistency(serial_report):
    r = serial_report
    working = (r.instances - r.defective) + r.working_defective
    assert r.functional_yield == working / r.instances
    assert r.analytic_yield == pytest.approx(
        r.device_yield**r.devices
    )
    assert r.functional_yield >= r.analytic_yield - 1e-12
    lo, hi = r.yield_ci
    assert 0.0 <= lo <= r.functional_yield <= hi <= 1.0
    assert r.cost_per_working_unit == r.area / r.functional_yield
    # fmax quantiles decrease as the covered fraction grows; nominal
    # (variation-free) sits inside the fleet spread.
    assert r.fmax_quantiles[0.05] < r.fmax_quantiles[0.5] < r.fmax_quantiles[0.95]
    assert r.fmax_quantiles[0.05] < r.nominal_fmax < r.fmax_quantiles[0.95]
    # Lifetime is linear in delay: quantiles increase together.
    assert r.lifetime_quantiles[0.05] < r.lifetime_quantiles[0.95]
    sketch = QuantileSketch.from_dict(r.delay_sketch)
    assert sketch.count == r.instances
    assert r.mean_delay == sketch.mean


def test_report_round_trips_to_json(serial_report):
    payload = json.loads(json.dumps(serial_report.to_dict()))
    assert payload["design"] == "p1_4_2"
    assert payload["instances"] == INSTANCES


def test_seed_changes_fleet(serial_report):
    other = run_yield_campaign(
        YieldSpec(
            config=SPEC.config,
            device_yield=SPEC.device_yield,
            sigma=SPEC.sigma,
            seed=14,
            block=SPEC.block,
        ),
        INSTANCES,
        jobs=1,
    )
    assert other.delay_sketch != serial_report.delay_sketch


def test_context_memo_ignores_seed_and_technology(monkeypatch):
    """The golden run depends on core and program, not on sampling."""
    golden = engine.golden_signature
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return golden(*args, **kwargs)

    monkeypatch.setattr(engine, "golden_signature", counted)
    monkeypatch.setattr(engine, "_WORKER_CONTEXT", None)
    specs = (
        replace(SPEC, seed=21, technology="EGFET"),
        replace(SPEC, seed=22, technology="CNT"),
    )
    reports = [run_yield_campaign(spec, 300, jobs=1) for spec in specs]
    assert len(calls) == 1
    for spec, report in zip(specs, reports):
        monkeypatch.setattr(engine, "_WORKER_CONTEXT", None)
        assert _stable(run_yield_campaign(spec, 300, jobs=1)) == _stable(report)


def test_rejects_empty_fleet():
    with pytest.raises(ValueError):
        run_yield_campaign(SPEC, 0)


def test_cli_smoke(tmp_path, capsys):
    from repro.apps.yieldcli import yield_main

    report_path = tmp_path / "yield-report.json"
    code = yield_main(
        [
            "p1_4_2",
            "--instances", "400",
            "--jobs", "2",
            "--seed", "13",
            "--block", "128",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "yield[p1_4_2" in out
    payload = json.loads(report_path.read_text())
    campaign = payload["yield_campaigns"]["p1_4_2"]
    assert campaign["instances"] == 400
    assert 0.0 < campaign["functional_yield"] <= 1.0


def test_cli_rejects_bad_usage(capsys):
    from repro.apps.yieldcli import yield_main

    assert yield_main([]) == 2
    assert yield_main(["--bogus"]) == 2
    assert yield_main(["p1_4_2", "--instances"]) == 2
