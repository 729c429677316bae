"""The ``python -m repro campaign`` subcommand."""

from repro.apps.campaign import campaign_main


class TestCampaignCli:
    def test_numpy_campaign(self, capsys):
        code = campaign_main(
            ["--program", "mult", "--width", "8", "--backend", "numpy",
             "--stride", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "numpy" in out
        assert "coverage" in out
        assert "faults/s" in out

    def test_config_by_name(self, capsys):
        code = campaign_main(
            ["--config", "p1_8_2", "--backend", "batched", "--stride", "32"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "p1_8_2" in out

    def test_max_faults_and_lanes(self, capsys):
        code = campaign_main(
            ["--backend", "numpy", "--stride", "8", "--max-faults", "10",
             "--lanes", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "/10 faults" in out

    def test_unknown_backend_rejected(self, capsys):
        assert campaign_main(["--backend", "jit"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_unknown_option_rejected(self, capsys):
        assert campaign_main(["--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_value_rejected(self, capsys):
        assert campaign_main(["--stride"]) == 2

    def test_verify_suite_needs_lane_backend(self, capsys):
        assert campaign_main(["--verify-suite", "--backend", "interpreted"]) == 2
        assert "lane backend" in capsys.readouterr().err

    def test_help(self, capsys):
        assert campaign_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out
