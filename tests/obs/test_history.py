"""Tests for the cross-run telemetry ledger and regression sentinel."""

import json
import os

import pytest

from repro import obs
from repro.exec import parallel_map
from repro.obs import history


@pytest.fixture
def ledger_dir(tmp_path, monkeypatch):
    """Private ledger directory for one test."""
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_HISTORY", raising=False)
    return tmp_path


def _bench_series(speedup: float, wall: float = 30.0) -> dict:
    return {
        "bench.fault_campaign_numpy.speedup_vs_batched": speedup,
        "wall_seconds": wall,
    }


def _seed_baseline(values, fingerprint=None, command=("bench",)):
    """Append one 'bench' record per baseline value; returns records."""
    records = []
    for i, speedup in enumerate(values):
        record = history.build_record(
            "bench",
            command,
            _bench_series(speedup),
            fingerprint=fingerprint,
            ts=f"2026-08-{i + 1:02d}T00:00:00+00:00",
        )
        history.append_record(record)
        records.append(record)
    return records


class TestLedgerBasics:
    def test_append_and_read_roundtrip(self, ledger_dir):
        record = history.build_record("bench", ["bench"], _bench_series(5.9))
        record_id = history.append_record(record)
        assert record_id == record["id"]
        loaded = history.read_ledger()
        assert len(loaded) == 1
        assert loaded[0]["id"] == record_id
        assert loaded[0]["schema"] == history.SCHEMA
        assert loaded[0]["series"]["wall_seconds"] == 30.0

    def test_id_is_content_addressed(self, ledger_dir):
        a = history.build_record(
            "bench", ["bench"], _bench_series(5.9), ts="2026-08-01T00:00:00")
        b = history.build_record(
            "bench", ["bench"], _bench_series(5.9), ts="2026-08-01T00:00:00")
        c = history.build_record(
            "bench", ["bench"], _bench_series(6.0), ts="2026-08-01T00:00:00")
        assert a["id"] == b["id"]
        assert a["id"] != c["id"]

    def test_opt_out_disables_appends(self, ledger_dir, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY", "0")
        assert not history.history_enabled()
        record = history.build_record("bench", ["bench"], _bench_series(5.9))
        assert history.append_record(record) is None
        assert history.record_report({"schema": "x", "command": []}) is None
        assert not (ledger_dir / history.LEDGER_NAME).exists()

    def test_missing_ledger_reads_empty(self, ledger_dir):
        assert history.read_ledger() == []

    def test_truncated_record_skipped_never_crashes(
        self, ledger_dir, obs_enabled, capsys
    ):
        _seed_baseline([5.8, 5.9])
        path = ledger_dir / history.LEDGER_NAME
        # A writer crashed mid-append: final line is a torn prefix.
        with open(path, "a") as handle:
            handle.write('{"schema": "repro.obs.history/v1", "ser')
        survivors = history.read_ledger()
        assert [r["series"]["bench.fault_campaign_numpy.speedup_vs_batched"]
                for r in survivors] == [5.8, 5.9]
        assert "skipped 1 corrupt record" in capsys.readouterr().err
        assert obs.snapshot()["history.corrupt_records"] == 1

    def test_garbled_middle_line_skipped(self, ledger_dir):
        _seed_baseline([5.8])
        path = ledger_dir / history.LEDGER_NAME
        with open(path, "a") as handle:
            handle.write("!!not json!!\n")
            handle.write('{"valid json": "but not a record"}\n')
        _seed_baseline([5.9])
        values = [
            r["series"]["bench.fault_campaign_numpy.speedup_vs_batched"]
            for r in history.read_ledger()
        ]
        assert values == [5.8, 5.9]


def _append_one(index: int) -> str | None:
    """Module-level worker fn (picklable): one ledger append."""
    record = history.build_record(
        "test", ["concurrency"], {"value": float(index)},
        ts="2026-08-08T00:00:00+00:00",
    )
    return history.append_record(record)


class TestLedgerConcurrency:
    def test_parallel_appends_from_exec_workers(self, ledger_dir):
        """32 appends from 4 pool workers interleave whole records."""
        ids = parallel_map(_append_one, range(32), jobs=4)
        assert all(ids)
        records = history.read_ledger()
        assert len(records) == 32
        # Every record parsed back whole: the full value set survived.
        assert {r["series"]["value"] for r in records} == set(
            float(i) for i in range(32)
        )

    def test_threaded_appends_interleave_whole_lines(self, ledger_dir):
        import threading

        def worker(base):
            for i in range(25):
                _append_one(base * 100 + i)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(history.read_ledger()) == 100


class TestExtractSeries:
    def test_run_report_series(self, obs_enabled, ledger_dir):
        with obs.span("stage_a"):
            obs.counter("compile.cache_hits").inc(3)
            obs.counter("compile.cache_misses").inc(1)
            obs.histogram("faults.per_second").observe(100.0)
        report = obs.build_run_report(["demo"], 2.5)
        series = history.extract_series(report)
        assert series["wall_seconds"] == 2.5
        assert "stage.stage_a.wall_s" in series
        assert series["metric.compile.cache_hits"] == 3
        assert series["compile.cache_hit_rate"] == 0.75
        assert series["metric.faults.per_second.mean"] == 100.0

    def test_bench_report_series(self):
        report = {
            "schema": "repro.obs.run_report/v3+bench",
            "command": ["bench_sim_backends"],
            "wall_seconds": 100.0,
            "cosim": {"p1_8_2": {"speedup": 9.1}},
            "fault_campaign_numpy": {
                "speedup_vs_interpreted": 470.0,
                "speedup_vs_batched": 5.9,
                "numpy": {"faults_per_s": 26000.0, "seconds": 0.04},
            },
            "obs_overhead": {"overhead_pct": 0.08},
            "parallel_scaling": {
                "jobs": {"1": {"combined_s": 30.0},
                         "4": {"speedup": 2.8, "combined_s": 10.7}},
            },
        }
        series = history.extract_series(report)
        assert series["bench.cosim.p1_8_2.speedup"] == 9.1
        assert (
            series["bench.fault_campaign_numpy.speedup_vs_interpreted"] == 470.0
        )
        # Reports recorded while the bigint campaign backend existed
        # still carry its ratio; it is no longer a series.
        assert "bench.fault_campaign_numpy.speedup_vs_batched" not in series
        assert (
            series["bench.fault_campaign_numpy.numpy.faults_per_s"] == 26000.0
        )
        assert series["bench.obs_overhead.overhead_pct"] == 0.08
        assert series["bench.parallel_scaling.jobs4.speedup"] == 2.8
        record = history.record_from_report(report)
        assert record["kind"] == "bench"
        assert record["fingerprint"]["cpu_count"] == (os.cpu_count() or 1)


class TestSentinel:
    def test_flags_20pct_regression_against_5_record_baseline(
        self, ledger_dir
    ):
        """Acceptance pin: a synthetic 20% throughput drop is caught."""
        _seed_baseline([5.8, 5.9, 6.0, 5.95, 5.85])
        median = 5.9
        regressed = history.build_record(
            "bench", ["bench"], _bench_series(round(median * 0.8, 3)),
            ts="2026-08-09T00:00:00+00:00",
        )
        history.append_record(regressed)
        result = history.check_latest()
        assert result is not None
        assert not result.ok
        names = [c.name for c in result.regressions]
        assert names == ["bench.fault_campaign_numpy.speedup_vs_batched"]
        assert "FAIL" in result.render()

    def test_passes_on_jittered_but_stable_records(self, ledger_dir):
        """Acceptance pin: ±4% jitter around a flat level never fails."""
        jitter = [5.78, 6.05, 5.92, 5.85, 6.1]
        _seed_baseline(jitter)
        stable = history.build_record(
            "bench", ["bench"], _bench_series(5.95),
            ts="2026-08-09T00:00:00+00:00",
        )
        history.append_record(stable)
        result = history.check_latest()
        assert result is not None
        assert result.ok
        assert "PASS" in result.render()

    def test_lower_is_better_series_gates_rises(self, ledger_dir):
        _seed_baseline([5.9] * 5)  # wall_seconds rides along at 30.0
        slow = history.build_record(
            "bench", ["bench"], _bench_series(5.9, wall=30.0 * 1.25),
            ts="2026-08-09T00:00:00+00:00",
        )
        history.append_record(slow)
        result = history.check_latest()
        assert [c.name for c in result.regressions] == ["wall_seconds"]

    def test_cold_start_is_informational_pass(self, ledger_dir):
        _seed_baseline([5.9])  # 1 record, below min_baseline for itself
        result = history.check_latest()
        assert result is not None
        assert result.ok
        statuses = {c.name: c.status for c in result.checks}
        assert statuses["wall_seconds"] == "no_baseline"
        assert "cold start" in result.render()

    def test_empty_ledger_returns_none(self, ledger_dir):
        assert history.check_latest() is None

    def test_fingerprint_mismatch_excluded_from_baseline(self, ledger_dir):
        """A 1-CPU container never baselines against a 64-core box."""
        other = dict(history.env_fingerprint(), cpu_count=64)
        _seed_baseline([50.0] * 5, fingerprint=other)
        mine = history.build_record(
            "bench", ["bench"], _bench_series(5.9),
            ts="2026-08-09T00:00:00+00:00",
        )
        history.append_record(mine)
        result = history.check_latest()
        # 5.9 vs a 50.0 baseline would be a blatant regression; the
        # mismatched fingerprints make it a cold start instead.
        assert result.ok
        statuses = {c.name: c.status for c in result.checks}
        assert (
            statuses["bench.fault_campaign_numpy.speedup_vs_batched"]
            == "no_baseline"
        )

    def test_command_mismatch_excluded_from_baseline(self, ledger_dir):
        _seed_baseline([50.0] * 5, command=("bench", "--smoke"))
        mine = history.build_record(
            "bench", ["bench"], _bench_series(5.9),
            ts="2026-08-09T00:00:00+00:00",
        )
        history.append_record(mine)
        result = history.check_latest(command=["bench"])
        assert result.ok

    def test_directions(self):
        assert history.series_direction("bench.cosim.p1_8_2.speedup") == "higher"
        assert (
            history.series_direction(
                "bench.fault_campaign_numpy.speedup_vs_batched"
            )
            == "higher"
        )
        assert history.series_direction("compile.cache_hit_rate") == "higher"
        assert history.series_direction("metric.faults.per_second.mean") == "higher"
        assert history.series_direction("wall_seconds") == "lower"
        assert history.series_direction("stage.sweep.wall_s") == "lower"
        assert history.series_direction("bench.obs_overhead.overhead_pct") == "lower"
        assert history.series_direction("metric.dse.evaluations") is None


class TestReportIntegration:
    def test_write_run_report_feeds_ledger_and_sets_ref(
        self, obs_enabled, ledger_dir, tmp_path
    ):
        report = obs.build_run_report(["demo"], 1.0)
        path = tmp_path / "RUN_REPORT.json"
        obs.write_run_report(path, report)
        assert "history_ref" in report
        loaded = json.loads(path.read_text())
        assert loaded["history_ref"] == report["history_ref"]
        assert loaded["fingerprint"]["cpu_count"] == (os.cpu_count() or 1)
        assert loaded["fingerprint"]["python"]
        records = history.read_ledger()
        assert len(records) == 1
        assert records[0]["id"] == report["history_ref"]
        assert records[0]["kind"] == "run_report"

    def test_write_run_report_opt_out_leaves_no_trace(
        self, obs_enabled, ledger_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_HISTORY", "0")
        report = obs.build_run_report(["demo"], 1.0)
        obs.write_run_report(tmp_path / "r.json", report)
        assert "history_ref" not in report
        assert not (ledger_dir / history.LEDGER_NAME).exists()


class TestCli:
    def _seed(self, values):
        _seed_baseline(values)

    def test_check_passes_and_fails_by_exit_code(self, ledger_dir, capsys):
        from repro.__main__ import main

        self._seed([5.8, 5.9, 6.0, 5.95, 5.85, 5.9])
        assert main(["history", "check"]) == 0
        assert "PASS" in capsys.readouterr().out
        regressed = history.build_record(
            "bench", ["bench"], _bench_series(4.0),
            ts="2026-08-09T00:00:00+00:00",
        )
        history.append_record(regressed)
        assert main(["history", "check"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_empty_ledger_passes(self, ledger_dir, capsys):
        from repro.__main__ import main

        assert main(["history", "check"]) == 0
        assert "informational pass" in capsys.readouterr().out

    def test_show_lists_records(self, ledger_dir, capsys):
        from repro.__main__ import main

        self._seed([5.9, 6.0])
        assert main(["history", "show"]) == 0
        out = capsys.readouterr().out
        assert "bench" in out
        assert "2 records" in out

    def test_append_report_file(self, ledger_dir, tmp_path, capsys):
        from repro.__main__ import main

        report = obs.build_run_report(["ci-run"], 3.0)
        report_path = tmp_path / "RUN_REPORT.json"
        report_path.write_text(json.dumps(report))
        assert main(["history", "append", "--report", str(report_path)]) == 0
        assert "appended" in capsys.readouterr().out
        records = history.read_ledger()
        assert records[-1]["command"] == ["ci-run"]

    def test_bad_usage_exits_2(self, ledger_dir, capsys):
        from repro.__main__ import main

        assert main(["history", "bogus-verb"]) == 2
        assert main(["history", "check", "--bogus"]) == 2
        assert main(["history", "append"]) == 2
