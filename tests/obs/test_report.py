"""Tests for progress logging and machine-readable run reports."""

import io
import json

from repro import obs
from repro.obs.report import MAX_REPORT_SPANS, SCHEMA, build_run_report
from repro.coregen.config import CoreConfig
from repro.dse.sweep import evaluate_design


class TestProgress:
    def test_passthrough_when_disabled(self, obs_disabled):
        stream = io.StringIO()
        items = list(obs.progress(range(5), "loop", every=1, stream=stream))
        assert items == [0, 1, 2, 3, 4]
        assert stream.getvalue() == ""

    def test_logs_every_n_with_total_and_final_line(self, obs_enabled):
        stream = io.StringIO()
        items = list(obs.progress(range(10), "loop", every=4, stream=stream))
        assert items == list(range(10))
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[obs] loop: 4/10 (40%)")
        assert "eta" in lines[0]
        assert lines[1].startswith("[obs] loop: 8/10 (80%)")
        assert lines[-1].startswith("[obs] loop: 10/10 (100%)")
        assert "in " in lines[-1]

    def test_unsized_iterable_logs_rate_only(self, obs_enabled):
        stream = io.StringIO()
        list(obs.progress(iter(range(6)), "gen", every=3, stream=stream))
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[obs] gen: 3 ")
        assert "eta" not in lines[0]

    def test_empty_iterable_logs_nothing(self, obs_enabled):
        stream = io.StringIO()
        assert list(obs.progress([], "none", stream=stream)) == []
        assert stream.getvalue() == ""

    def test_heartbeat_flushes_between_count_milestones(self, obs_enabled):
        """Non-tty streams get wall-clock lines even when ``every`` is
        far away — a tiny heartbeat makes every item emit."""
        stream = io.StringIO()
        list(obs.progress(
            range(5), "slow", every=1000, stream=stream, heartbeat=1e-9,
        ))
        lines = stream.getvalue().splitlines()
        # 4 heartbeat lines (not the final item) plus the final line.
        assert len(lines) == 5
        assert "elapsed" in lines[0]
        assert lines[-1].startswith("[obs] slow: 5/5 (100%)")

    def test_heartbeat_env_override(self, obs_enabled, monkeypatch):
        from repro.obs.progress import _resolve_heartbeat

        stream = io.StringIO()  # isatty() is False
        assert _resolve_heartbeat(None, stream) == 30.0
        monkeypatch.setenv("REPRO_PROGRESS_HEARTBEAT", "5")
        assert _resolve_heartbeat(None, stream) == 5.0
        assert _resolve_heartbeat(2.0, stream) == 2.0  # explicit wins
        monkeypatch.setenv("REPRO_PROGRESS_HEARTBEAT", "0")
        assert _resolve_heartbeat(None, stream) == 0.0


class TestRunReport:
    def test_mini_sweep_report_schema(self, obs_enabled, tmp_path):
        """Integration: a 2-point mini-sweep produces a valid report."""
        from repro.dse.sweep import _evaluate_design

        _evaluate_design.cache_clear()  # force real (span-recording) work
        for width in (4, 8):
            with obs.span("sweep"):
                evaluate_design(CoreConfig(datawidth=width), "EGFET")
        report = build_run_report(["mini-sweep"], wall_seconds=1.0)
        path = tmp_path / "RUN_REPORT.json"
        obs.write_run_report(path, report)
        loaded = json.loads(path.read_text())

        assert loaded["schema"] == SCHEMA
        assert loaded["command"] == ["mini-sweep"]
        assert loaded["wall_seconds"] == 1.0
        stage_names = [s["name"] for s in loaded["stages"]]
        assert stage_names == ["sweep"]
        assert loaded["stages"][0]["count"] == 2
        assert 0.0 <= loaded["stage_coverage"]
        assert loaded["span_count"] == len(loaded["spans"])
        assert loaded["span_count"] >= 2
        # evaluate_design spans nest under the sweep stage.
        nested = [s for s in loaded["spans"] if s["name"] == "evaluate_design"]
        assert any(s["path"] == "sweep/evaluate_design" for s in nested)
        # Metrics flowed in from the instrumented pipeline.
        assert loaded["metrics"]["dse.evaluations"] >= 2
        assert loaded["environment"]["python"]
        assert isinstance(loaded["git"], dict)
        # v3 additions: env fingerprint block + ledger back-reference.
        assert set(loaded["fingerprint"]) == {
            "cpu_count", "platform", "machine", "python", "git_sha",
        }
        assert loaded["history_ref"]

    def test_schema_is_v3(self):
        assert SCHEMA.endswith("/v3")

    def test_compact_dump_elides_spans_sorts_keys(self, obs_enabled):
        with obs.span("stage"):
            pass
        report = build_run_report(["compact"], 1.0)
        full = obs.dump_report_json(report)
        compact = obs.dump_report_json(report, compact=True)
        assert len(compact) < len(full)
        assert json.loads(compact)["spans"] == []
        assert json.loads(compact)["span_count"] == report["span_count"]
        keys = list(json.loads(full))
        assert keys == sorted(keys)

    def test_span_detail_capped_but_aggregates_complete(self, obs_enabled):
        for _ in range(MAX_REPORT_SPANS + 10):
            with obs.span("tick"):
                pass
        report = build_run_report(["cap"], wall_seconds=0.5)
        assert len(report["spans"]) == MAX_REPORT_SPANS
        assert report["span_count"] == MAX_REPORT_SPANS + 10
        assert report["stages"][0]["count"] == MAX_REPORT_SPANS + 10

    def test_extra_keys_merged(self, obs_enabled):
        report = build_run_report(["x"], 1.0, extra={"custom": 7})
        assert report["custom"] == 7

    def test_render_is_plain_text(self, obs_enabled):
        obs.counter("test.rendered").inc()
        with obs.span("stage"):
            pass
        report = build_run_report(["render"], 1.0)
        text = obs.render_run_report(report)
        assert "stage" in text
        assert "test.rendered" in text


class TestCli:
    def test_profile_writes_run_report(self, obs_disabled, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "RUN_REPORT.json"
        assert main(["--profile", "--report-out", str(out), "table6"]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        assert report["command"] == ["table6"]
        assert [s["name"] for s in report["stages"]] == ["table6"]
        assert "Run report" in capsys.readouterr().out

    def test_stats_prints_nonzero_counters(self, obs_disabled, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "RUN_REPORT.json"
        assert main(["--report-out", str(out), "stats"]) == 0
        text = capsys.readouterr().out
        assert "sim.lane_cycles_simulated" in text
        assert "compile.cache_hits" in text

    def test_unknown_flag_rejected(self, obs_disabled, capsys):
        from repro.__main__ import main

        assert main(["--bogus"]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_trace_out_exports_jsonl(self, obs_disabled, tmp_path):
        from repro.__main__ import main
        from repro.obs.trace import load_jsonl

        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "RUN_REPORT.json"
        assert main([
            "--profile", "--trace-out", str(trace),
            "--report-out", str(report), "table6",
        ]) == 0
        events = load_jsonl(trace)
        assert any(e["name"] == "table6" for e in events)
