"""Tests for the process-pool engine: jobs policy, determinism, obs."""

import pytest

from repro import obs
from repro.coregen import fault_test
from repro.coregen.fault_test import run_fault_campaign
from repro.dse.sweep import sweep_design_space, sweep_design_spaces
from repro.errors import ConfigError
from repro.eval.suite import evaluate_suite
from repro.exec import map_in_chunks, parallel_map, resolve_jobs, set_default_jobs
from repro.exec import engine
from repro.programs import build_benchmark


def _square(value):
    """Module-level worker: picklable for the process pool."""
    return value * value


def _boom(value):
    """Module-level worker that always fails."""
    raise ValueError(f"boom on {value}")


def _traced_square(value):
    """Worker that emits a span and a counter (obs-shipping probe)."""
    with obs.span("worker_item", item=value):
        obs.counter("test.worker_items").inc()
    return value * value


# Probe state for the warm-worker initializer tests: ``_mark_warm``
# flips the flag inside a worker process; items read it back.
_WARM_FLAG = {"warmed": False}


def _mark_warm():
    _WARM_FLAG["warmed"] = True


def _warm_boom():
    raise RuntimeError("warm-up failed")


def _read_warm(value):
    return (value, _WARM_FLAG["warmed"])


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_default_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        set_default_jobs(2)
        try:
            assert resolve_jobs() == 2
        finally:
            set_default_jobs(None)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError):
            resolve_jobs()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigError, match="REPRO_JOBS must be >= 1"):
            resolve_jobs()

    def test_invalid_explicit_raises(self):
        with pytest.raises(ConfigError):
            resolve_jobs(0)
        with pytest.raises(ConfigError):
            set_default_jobs(0)

    def test_workers_never_nest(self, monkeypatch):
        monkeypatch.setattr(engine, "_IN_WORKER", True)
        assert resolve_jobs(8) == 1


class TestParallelMap:
    def test_serial_parallel_identical(self):
        items = list(range(23))
        assert parallel_map(_square, items, jobs=2) == [_square(i) for i in items]

    def test_chunk_size_override(self):
        items = list(range(10))
        assert parallel_map(_square, items, jobs=2, chunk_size=3) == [
            _square(i) for i in items
        ]

    def test_map_in_chunks_flattens(self):
        items = list(range(11))

        def double_all(batch):
            return [2 * value for value in batch]

        assert map_in_chunks(double_all, items, chunk_size=4) == [
            2 * value for value in items
        ]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2, 3], jobs=2)

    def test_empty_and_single(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [7], jobs=4) == [49]

    def test_warm_runs_in_every_worker_before_items(self):
        results = parallel_map(_read_warm, list(range(6)), jobs=2, warm=_mark_warm)
        assert [value for value, _ in results] == list(range(6))
        assert all(warmed for _, warmed in results)
        # The parent process is never warmed -- only pool workers.
        assert _WARM_FLAG["warmed"] is False

    def test_warm_ignored_for_serial_runs(self):
        assert parallel_map(_read_warm, [7], jobs=1, warm=_mark_warm) == [
            (7, False)
        ]
        assert _WARM_FLAG["warmed"] is False

    def test_warm_failure_is_swallowed(self):
        items = list(range(4))
        assert parallel_map(_square, items, jobs=2, warm=_warm_boom) == [
            _square(value) for value in items
        ]

    def test_worker_obs_ships_to_parent(self, obs_enabled):
        with obs.span("campaign"):
            results = parallel_map(_traced_square, list(range(8)), jobs=2)
        assert results == [i * i for i in range(8)]
        snapshot = obs.snapshot()
        assert snapshot["test.worker_items"] == 8
        assert snapshot["exec.parallel_runs"] == 1
        assert snapshot["exec.tasks_executed"] == 8
        # Worker spans are re-rooted under the parent's live span.
        worker_paths = [
            event.path for event in obs.TRACER.events()
            if event.name == "worker_item"
        ]
        assert worker_paths and all(
            path.startswith("campaign/") for path in worker_paths
        )

    def test_worker_telemetry_populated(self, obs_enabled):
        """A parallel run leaves per-worker chunk timings behind:
        wait vs compute histograms, pool utilization, straggler ratio."""
        results = parallel_map(_square, list(range(16)), jobs=2)
        assert results == [i * i for i in range(16)]
        snapshot = obs.snapshot()
        assert snapshot["exec.worker.chunk_compute_s"]["count"] >= 1
        assert snapshot["exec.worker.chunk_wait_s"]["count"] >= 1
        assert snapshot["exec.worker.chunk_wait_s"]["min"] >= 0.0
        assert 0.0 < snapshot["exec.worker.utilization"] <= 1.0
        assert snapshot["exec.worker.straggler_ratio"] >= 1.0

    def test_worker_telemetry_absent_for_serial(self, obs_enabled):
        parallel_map(_square, list(range(4)), jobs=1)
        snapshot = obs.snapshot()
        assert snapshot["exec.worker.chunk_compute_s"]["count"] == 0
        assert snapshot["exec.worker.utilization"] == 0


class TestPipelineDeterminism:
    def test_sweep_both_technologies(self, cache_dir):
        for technology in ("EGFET", "CNT"):
            serial = sweep_design_space(technology)
            parallel = sweep_design_space(technology, jobs=2)
            assert serial == parallel

    def test_multi_technology_sweep(self, cache_dir):
        both = sweep_design_spaces(("EGFET", "CNT"), jobs=2)
        assert both["EGFET"] == sweep_design_space("EGFET")
        assert both["CNT"] == sweep_design_space("CNT")

    def test_fault_campaign_numpy_parallel(self, cache_dir):
        program = build_benchmark("mult", 8, 4)
        serial = run_fault_campaign(
            program, max_faults=96, backend="numpy", lanes=48
        )
        parallel = run_fault_campaign(
            program, max_faults=96, backend="numpy", lanes=48, jobs=2
        )
        assert serial == parallel

    def test_fault_campaign_bisects_wedged_batches(self, cache_dir, monkeypatch):
        program = build_benchmark("mult", 8, 4)
        expected = run_fault_campaign(program, max_faults=24, lanes=8)
        original = fault_test.lane_signatures
        wedged = []

        def wedging(program, config, cycles, fault_sets, context=None):
            # A batch of four or more lanes wedges, so every 8-lane
            # chunk bisects down to runs of two lanes.
            if len(fault_sets) >= 4:
                wedged.append(len(fault_sets))
                raise RuntimeError("wedged batch")
            return original(program, config, cycles, fault_sets, context)

        monkeypatch.setattr(fault_test, "lane_signatures", wedging)
        serial = run_fault_campaign(program, max_faults=24, lanes=8)
        assert wedged == [8, 4, 4] * 3
        parallel = run_fault_campaign(program, max_faults=24, lanes=8, jobs=2)
        assert serial == parallel == expected
        assert serial.total == 24

    def test_fault_campaign_scalar_backend(self, cache_dir):
        program = build_benchmark("mult", 8, 4)
        serial = run_fault_campaign(
            program, max_faults=12, backend="interpreted"
        )
        parallel = run_fault_campaign(
            program, max_faults=12, backend="interpreted", jobs=2
        )
        assert serial == parallel

    def test_evaluate_suite(self, cache_dir):
        serial = evaluate_suite(("EGFET",))
        parallel = evaluate_suite(("EGFET",), jobs=2)
        assert serial == parallel
        assert {result.program for result in serial} == {
            "mult", "div", "inSort", "intAvg", "tHold", "crc8", "dTree"
        }
