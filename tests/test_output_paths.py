"""Output flags whose path's parent directory does not exist yet.

The shared writers (the run report, the trace export and the
dashboard) create missing parent directories, as ``--vcd`` and
``place --out`` do.  A path that still cannot be written, here one
under a regular file, exits 2 with one message naming the flag and no
traceback.
"""

import pytest

from repro import obs
from repro.__main__ import main

#: (flag, argv with ``{path}`` standing for the output path).
FLAGS = [
    ("--report", ["yield", "p1_4_2", "--instances", "50", "--report", "{path}"]),
    ("--report", ["place", "p1_4_2", "--fabric", "small", "--sweeps", "1",
                  "--out", "{out}", "--report", "{path}"]),
    ("--out", ["dashboard", "--out", "{path}"]),
    ("--trace-out", ["--profile", "--trace-out", "{path}",
                     "--report-out", "{out}/RUN_REPORT.json", "table6"]),
    ("--report-out", ["--profile", "--report-out", "{path}", "table6"]),
    ("--report-out", ["profile-design", "p1_4_2", "--program", "mult",
                      "--profile", "--report-out", "{path}"]),
]
IDS = ["yield", "place", "dashboard", "trace-out", "report-out",
       "profile-design"]


@pytest.fixture(autouse=True)
def _obs_off():
    """``--profile`` switches tracing on for the process; switch it off."""
    try:
        yield
    finally:
        obs.disable()
        obs.reset()


def _run(argv, path, out, capsys):
    capsys.readouterr()
    code = main([a.format(path=path, out=out) for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("flag, argv", FLAGS, ids=IDS)
def test_missing_parent_directory_is_created(flag, argv, tmp_path, capsys):
    path = tmp_path / "new" / "deeper" / "output.json"
    code, err = _run(argv, path, tmp_path, capsys)
    assert code == 0, err
    assert path.is_file() and path.stat().st_size > 0


@pytest.mark.parametrize("flag, argv", FLAGS, ids=IDS)
def test_unwritable_path_exits_2_naming_the_flag(flag, argv, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    path = blocker / "output.json"
    code, err = _run(argv, path, tmp_path, capsys)
    assert code == 2
    assert f"{flag}: cannot write {path}" in err
    assert "usage" in err
    assert "Traceback" not in err
