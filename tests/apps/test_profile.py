"""End-to-end tests for the profile-design driver and CLI."""

import json

import pytest

from repro.coregen.config import CoreConfig
from repro.apps.profile import (
    PROFILE_SCHEMA,
    _suffixed,
    profile_design,
    profile_designs,
    profile_main,
    render_profile,
)


@pytest.fixture(scope="module")
def crc8_profile(tmp_path_factory):
    """One full crc8 run on the headline core, shared across tests."""
    out = tmp_path_factory.mktemp("profile") / "crc8.vcd"
    profile = profile_design(
        CoreConfig(datawidth=8), program_name="crc8", vcd_path=out, top=5
    )
    return profile, out


class TestProfileDesign:
    def test_profile_shape(self, crc8_profile):
        profile, _ = crc8_profile
        assert profile["schema"] == PROFILE_SCHEMA
        assert profile["backend"] == "interpreted"
        assert profile["design"] == "p1_8_2"
        assert profile["program"].startswith("crc8")
        assert profile["cycles"] > 0
        # The reset tick precedes probe attachment, so the trace
        # covers every *profiled* cycle: sim cycles minus reset.
        assert profile["trace"]["recorded"] == profile["cycles"] - 1
        assert json.loads(json.dumps(profile)) == profile

    def test_energy_conservation(self, crc8_profile):
        profile, _ = crc8_profile
        total = profile["energy_per_cycle"]
        assert total > 0
        assert sum(profile["by_module"].values()) == total
        assert sum(profile["by_cell"].values()) == total

    def test_instruction_histogram(self, crc8_profile):
        profile, _ = crc8_profile
        assert 0 < len(profile["instructions"]) <= 5
        for entry in profile["instructions"]:
            assert entry["cycles"] > 0
            assert entry["disasm"]
            assert 0 <= entry["share"] <= 1
        cycle_total = sum(e["cycles"] for e in profile["instructions"])
        assert cycle_total <= profile["cycles"]

    def test_vcd_parses_with_architectural_nets(self, crc8_profile):
        profile, path = crc8_profile
        assert profile["vcd"] == str(path)
        text = path.read_text()
        assert "$timescale" in text
        assert "$enddefinitions $end" in text
        variables = [
            line for line in text.splitlines() if line.startswith("$var")
        ]
        declared = " ".join(variables)
        assert " pc [7:0]" in declared
        assert " flag_C" in declared
        assert " instr [23:0]" in declared
        assert " wdata [7:0]" in declared
        # Every value-change time marker is strictly increasing.
        times = [
            int(line[1:]) for line in text.splitlines()
            if line.startswith("#")
        ]
        assert times == sorted(set(times))
        assert len(times) > 10

    def test_render_is_textual(self, crc8_profile):
        profile, _ = crc8_profile
        text = render_profile(profile)
        assert "Energy by module" in text
        assert "Hottest instructions" in text
        assert profile["design"] in text

    def test_pipelined_core_runs_to_quiescence(self):
        """p3_8_2 halts through the multi-stage quiescence loop and the
        attribution still conserves energy."""
        config = CoreConfig(datawidth=8, pipeline_stages=3)
        profile = profile_design(config, program_name="mult", top=3)
        assert profile["design"] == "p3_8_2"
        assert profile["cycles"] == 95
        total = profile["energy_per_cycle"]
        assert sum(profile["by_module"].values()) == total
        assert sum(profile["by_cell"].values()) == total

    def test_trace_window_bounds_memory_not_energy(self):
        bounded = profile_design(
            CoreConfig(datawidth=4), program_name="mult", trace_maxlen=8
        )
        assert bounded["trace"]["dropped"] > 0
        assert bounded["trace"]["recorded"] == bounded["cycles"] - 1
        assert bounded["total_energy"] > 0

    def test_unknown_program_rejected(self):
        from repro.errors import ProgramError

        with pytest.raises(ProgramError, match="unknown benchmark"):
            profile_design(CoreConfig(datawidth=8), program_name="nope")


class TestProfileDesigns:
    def test_fan_out_preserves_order(self):
        configs = [CoreConfig(datawidth=4), CoreConfig(datawidth=8)]
        profiles = profile_designs(configs, program_name="mult", top=2)
        assert [p["design"] for p in profiles] == ["p1_4_2", "p1_8_2"]

    def test_override_length_mismatch_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="overrides"):
            profile_designs(
                [CoreConfig(datawidth=4)], per_config_options=[{}, {}]
            )


class TestSuffixed:
    def test_single_config_keeps_path(self):
        assert _suffixed("out.vcd", "p1_8_2", False) == "out.vcd"

    def test_multi_config_inserts_name(self):
        assert _suffixed("a/out.vcd", "p1_8_2", True) == "a/out.p1_8_2.vcd"


class TestCli:
    def test_end_to_end_with_artifacts(self, tmp_path, capsys):
        vcd = tmp_path / "out.vcd"
        energy = tmp_path / "energy.json"
        code = profile_main([
            "p1_8_2", "--program", "crc8", "--vcd", str(vcd),
            "--energy-report", str(energy), "--top", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Energy by module" in out
        assert vcd.exists()
        profile = json.loads(energy.read_text())
        assert profile["schema"] == PROFILE_SCHEMA
        assert sum(profile["by_module"].values()) == (
            profile["energy_per_cycle"]
        )

    def test_profiled_run_folds_into_run_report(self, tmp_path, capsys):
        from repro import obs

        report_path = tmp_path / "RUN_REPORT.json"
        try:
            code = profile_main([
                "p1_4_2", "--program", "mult", "--profile",
                "--report-out", str(report_path),
            ])
        finally:
            obs.disable()
            obs.reset()
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.obs.run_report/v3"
        assert len(report["design_profiles"]) == 1
        assert report["design_profiles"][0]["design"] == "p1_4_2"

    def test_bad_config_name_is_usage_error(self, capsys):
        assert profile_main(["q9"]) == 2

    def test_unknown_option_is_usage_error(self, capsys):
        assert profile_main(["--frobnicate"]) == 2

    def test_missing_argument_is_usage_error(self, capsys):
        assert profile_main(["p1_8_2", "--top"]) == 2

    def test_unsupported_program_exits_nonzero(self, capsys):
        # crc8 is 8-bit only; a 4-bit core cannot run it.
        assert profile_main(["p1_4_2", "--program", "crc8"]) == 1
