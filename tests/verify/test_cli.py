"""CLI and campaign driver: fixed-seed smoke corpus, serial and parallel.

This is the test-suite twin of the CI ``verify-smoke`` job: small fixed
seed ranges so a regression in any executor or in the generator fails
deterministically.
"""

import pytest

from repro.__main__ import main
from repro.coregen.config import CoreConfig
from repro.verify.corpus import run_campaign
from repro.verify.differential import fault_site_for_output


SMOKE_CONFIG = CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2)


class TestCampaign:
    def test_smoke_corpus_agrees(self):
        result = run_campaign(
            range(4), configs=(SMOKE_CONFIG,),
            executors=("bitparallel",),
        )
        assert result.ok, result.summary()
        assert len(result.cases) == 4

    def test_parallel_matches_serial(self):
        kwargs = dict(
            configs=(SMOKE_CONFIG,), executors=("bitparallel",),
        )
        serial = run_campaign(range(6), jobs=1, **kwargs)
        parallel = run_campaign(range(6), jobs=2, **kwargs)
        assert serial.cases == parallel.cases

    def test_fault_campaign_shrinks_and_emits(self, tmp_path):
        from repro.coregen.generator import generate_core

        fault = fault_site_for_output(generate_core(SMOKE_CONFIG), "wdata", 0)
        result = run_campaign(
            range(2), configs=(SMOKE_CONFIG,), executors=("bitparallel",),
            fault=fault, out_dir=tmp_path,
        )
        assert not result.ok
        assert result.repro_paths
        for path in result.repro_paths:
            assert path.exists()
            assert "differential_check" in path.read_text()


class TestCli:
    def test_verify_subcommand(self, capsys):
        code = main([
            "verify", "--seed", "0", "--count", "2",
            "--configs", "p1_8_2", "--executors", "bitparallel",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all agree" in out

    def test_lint_subcommand(self, capsys):
        assert main(["lint", "p1_4_2"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_bad_config_name(self):
        assert main(["lint", "nonsense"]) == 2

    def test_verify_unknown_option(self):
        assert main(["verify", "--frobnicate"]) == 2

    def test_inject_fault_is_caught(self, capsys, tmp_path):
        code = main([
            "verify", "--count", "2", "--configs", "p1_8_2",
            "--executors", "bitparallel", "--inject-fault", "wdata:0",
            "--shrink-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "injected fault was caught" in out
        assert list(tmp_path.glob("test_repro_*.py"))
