"""Doc-drift guard: documented command lines vs the option specs.

Every ``python -m repro <command> --flag`` in README.md, ``docs/*.md``
and the ``repro.__main__`` docstring must name a real flag of that
command, and docs/SERVE.md's flag and parameter tables must equal the
serve specs row for row.  A renamed or deleted flag fails here instead
of rotting in the documentation.
"""

import re
from pathlib import Path

import pytest

import repro.__main__
from repro.serve.cli import SERVE_OPTIONS
from repro.serve.drivers import DRIVERS

from tests.test_cli import SPECS

ROOT = Path(__file__).resolve().parents[2]
SERVE_DOC = ROOT / "docs" / "SERVE.md"
SOURCES = {
    "README.md": (ROOT / "README.md").read_text(),
    **{
        f"docs/{path.name}": path.read_text()
        for path in sorted((ROOT / "docs").glob("*.md"))
    },
    "repro.__main__": repro.__main__.__doc__,
}


def documented_invocations(text: str):
    """``(command, verb, flags)`` per ``python -m repro ...`` line."""
    text = text.replace("\\\n", " ")
    for line in re.findall(r"python -m repro((?:[ \t]+[^\s`#|]+)*)", text):
        tokens = line.split()
        command = tokens.pop(0) if tokens and tokens[0] in SPECS else ""
        verb = None
        if isinstance(SPECS[command], dict) and tokens:
            verb = tokens.pop(0)
        yield command, verb, [t for t in tokens if t.startswith("--")]


def _flags(command, verb):
    spec = SPECS[command]
    options = spec[verb] if isinstance(spec, dict) else spec
    return {option.flag for option in options} | {"--help"}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_documented_flags_exist(source):
    seen = 0
    for command, verb, flags in documented_invocations(SOURCES[source]):
        if isinstance(SPECS[command], dict):
            assert verb in SPECS[command], (source, command, verb)
        missing = set(flags) - _flags(command, verb)
        assert not missing, (
            f"{source}: `python -m repro {command} {verb or ''}` documents "
            f"unknown flag(s) {sorted(missing)}"
        )
        seen += len(flags)
    if source in ("README.md", "repro.__main__"):
        assert seen >= 5  # the parser really found the examples


def _table(text: str, header: str) -> list[list[str]]:
    """Rows of the markdown table whose header line is ``header``."""
    lines = text[text.index(header):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        cells = line.strip("|").split("|")
        rows.append([cell.strip().strip("`") for cell in cells])
    return rows


def test_serve_flag_table_matches_spec():
    rows = _table(SERVE_DOC.read_text(), "| flag | env | default | meaning |")
    assert [row[:3] for row in rows] == [
        [option.flag, option.env or "—", str(option.default)]
        for option in SERVE_OPTIONS
    ]


def test_serve_parameter_table_matches_drivers():
    rows = _table(SERVE_DOC.read_text(), "| kind | parameter | default |")
    assert rows == [
        [kind, option.name, str(option.default)]
        for kind in ("sweep", "yield", "campaign", "verify", "profile", "place")
        for option in DRIVERS[kind][0]
    ]
