"""The ``python -m repro place`` subcommand.

Includes the PR's headline determinism guarantee: the same seed
produces **byte-identical** layout pages and identical placement
records whether configs are placed serially or fanned out across
worker processes (``--jobs 2``).
"""

import json

from repro.apps.place import place_main

CONFIGS = ["p1_4_2", "p1_8_2"]


def _run(tmp_path, tag, jobs):
    out = tmp_path / tag
    out.mkdir()
    report = out / "RUN_REPORT.json"
    code = place_main(
        CONFIGS
        + ["--fabric", "small", "--seed", "0", "--sweeps", "3",
           "--jobs", str(jobs), "--out", str(out),
           "--report", str(report)]
    )
    assert code == 0
    layouts = {
        path.name: path.read_bytes() for path in out.glob("layout*.html")
    }
    placements = json.loads(report.read_text())["placements"]
    return layouts, placements


class TestPlaceCli:
    def test_jobs_do_not_perturb_placement(self, tmp_path, capsys):
        serial_layouts, serial = _run(tmp_path, "serial", jobs=1)
        parallel_layouts, parallel = _run(tmp_path, "parallel", jobs=2)
        capsys.readouterr()
        assert sorted(serial_layouts) == [
            "layout_p1_4_2.html", "layout_p1_8_2.html",
        ]
        # Byte-identical pages, identical quality numbers.
        assert serial_layouts == parallel_layouts
        for design in ("p1_4_2", "p1_8_2"):
            assert serial[design]["hpwl_m"] == parallel[design]["hpwl_m"]
            assert serial[design]["seed"] == 0
            assert serial[design]["fit"]["fits"] is True
            ppa = serial[design]["ppa"]
            assert (
                ppa["wire_aware"]["critical_path_delay"]
                >= ppa["wire_blind"]["critical_path_delay"]
            )

    def test_single_config_writes_layout_html(self, tmp_path, capsys):
        code = place_main(
            ["p1_4_2", "--fabric", "small", "--sweeps", "2",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "layout.html").exists()
        assert "wire-aware" in out
        assert "fits" in out

    def test_overflow_exits_nonzero_with_diagnostics(self, tmp_path, capsys):
        code = place_main(
            ["p3_16_4", "--fabric", "small", "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "OVERFLOW" in err
        assert "slot(s) short" in err

    def test_bad_usage(self, capsys):
        assert place_main([]) == 2
        assert place_main(["--bogus"]) == 2
        assert place_main(["p1_4_2", "--seed"]) == 2
        capsys.readouterr()

    def test_unknown_fabric_fails_cleanly(self, tmp_path, capsys):
        code = place_main(
            ["p1_4_2", "--fabric", "nope", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "unknown fabric" in capsys.readouterr().err

    def test_help(self, capsys):
        assert place_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out
