"""Result pins: SHA-256 digests of what the CLI prints and writes.

The bit-exact guards elsewhere compare one path with another, so a
change made to both sides in lockstep passes them.  These digests pin
the results themselves at default inputs: ``repro all`` stdout, every
``repro export`` artifact, ``repro lint`` stdout and a two-seed
``repro verify`` run.  A change that alters a pinned result re-records
``tests/data/result_pins.json`` on purpose and says which entries moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main

PINS_PATH = Path(__file__).parent / "data" / "result_pins.json"
PINS = json.loads(PINS_PATH.read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def quiet_obs(monkeypatch):
    """A profiled run appends a run report to stdout; pin the plain one."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    obs.disable()
    yield
    obs.disable()


@pytest.mark.parametrize("command", sorted(PINS["stdout"]))
def test_stdout_matches_pin(command, quiet_obs, capsys):
    capsys.readouterr()
    assert main(command.split()) == 0
    digest = _sha256(capsys.readouterr().out.encode())
    assert digest == PINS["stdout"][command], (
        f"`repro {command}` stdout changed (pins recorded on "
        f"{PINS['platform']})"
    )


def test_export_artifacts_match_pins(quiet_obs, tmp_path, capsys):
    target = tmp_path / "out"
    assert main(["export", str(target)]) == 0
    capsys.readouterr()
    written = {
        path.relative_to(target).as_posix(): _sha256(path.read_bytes())
        for path in sorted(target.rglob("*"))
        if path.is_file()
    }
    assert written == PINS["export"], (
        f"export artifacts changed (pins recorded on {PINS['platform']})"
    )
