"""The one option spec behind every ``python -m repro`` command and serve.

* Bad input returns 2 with one stderr message naming the flag, never a
  traceback and never a silent default.
* ``--help`` works for every command and lists every flag; the flag
  names and their defaults are the ones the commands have always had.
* Random argv never makes the parse helper raise.
* A serve job's parameters canonicalize exactly like the same values
  given as command-line flags.
"""

import contextlib
import io
from argparse import Namespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.__main__ import OPTIONS as TABLE_OPTIONS
from repro.__main__ import main
from repro.apps.campaign import CAMPAIGN_OPTIONS
from repro.apps.history import DASHBOARD_OPTIONS, HISTORY_OPTIONS
from repro.apps.place import PLACE_OPTIONS
from repro.apps.profile import PROFILE_OPTIONS
from repro.apps.yieldcli import YIELD_OPTIONS
from repro.coregen.config import standard_sweep
from repro.obs import history
from repro.serve.cli import SERVE_OPTIONS
from repro.serve.drivers import canonical_params
from repro.serve.jobs import job_key
from repro.verify.cli import LINT_OPTIONS, VERIFY_OPTIONS
from repro.verify.differential import DEFAULT_EXECUTORS

#: Command (``""`` = the table targets) -> its spec.
SPECS = {
    "": TABLE_OPTIONS,
    "verify": VERIFY_OPTIONS,
    "lint": LINT_OPTIONS,
    "campaign": CAMPAIGN_OPTIONS,
    "yield": YIELD_OPTIONS,
    "place": PLACE_OPTIONS,
    "profile-design": PROFILE_OPTIONS,
    "history": HISTORY_OPTIONS,
    "dashboard": DASHBOARD_OPTIONS,
    "serve": SERVE_OPTIONS,
}

#: The long flags each command accepts (74; serve's ``--heartbeat`` and
#: ``--tick`` went with the live event stream, profile-design's
#: ``--backend`` with the compiled scalar simulator).
FLAGS = {
    "": {"--profile", "--jobs", "--trace-out", "--report-out"},
    "verify": {
        "--seed", "--count", "--jobs", "--max-instructions", "--configs",
        "--executors", "--shrink-dir", "--inject-fault",
    },
    "lint": {"--all", "--verbose"},
    "campaign": {
        "--program", "--width", "--config", "--backend", "--stride",
        "--max-faults", "--lanes", "--jobs", "--verify-suite",
    },
    "yield": {
        "--instances", "--jobs", "--seed", "--sigma", "--device-yield",
        "--technology", "--program", "--width", "--lanes", "--block",
        "--duty", "--battery", "--report",
    },
    "place": {
        "--fabric", "--technology", "--seed", "--sweeps", "--jobs", "--out",
        "--report",
    },
    "profile-design": {
        "--program", "--technology", "--vcd", "--energy-report",
        "--top", "--jobs", "--max-cycles", "--trace-maxlen", "--probe",
        "--probe-regex", "--profile", "--report-out",
    },
    "history": {
        "--ledger", "--limit", "--kind", "--command", "--report", "--window",
        "--min-baseline", "--mad-k", "--rel-floor",
    },
    "dashboard": {"--out", "--ledger", "--title"},
    "serve": {
        "--host", "--port", "--jobs", "--workers", "--max-jobs",
        "--drain-timeout", "--verbose",
    },
}

#: (command argv, effective defaults) -- the values each command used
#: before the shared spec when the flag is absent.
DEFAULTS = [
    ([], {"profile": False, "jobs": None, "trace_out": None,
          "report_out": "RUN_REPORT.json", "targets": ["list"]}),
    (["verify"], {"seed": 0, "count": 20, "jobs": None,
                  "max_instructions": 20,
                  "configs": ("p1_8_2", "p2_4_4", "p3_16_2"),
                  "executors": DEFAULT_EXECUTORS, "shrink_dir": None,
                  "inject_fault": None}),
    (["lint"], {"all": False, "verbose": False,
                "configs": ("p1_8_2", "p3_16_4")}),
    (["campaign"], {"program": "mult", "width": 8, "config": None,
                    "backend": "numpy", "stride": 8, "max_faults": None,
                    "lanes": None, "jobs": None, "verify_suite": False}),
    (["yield", "p1_8_2"], {"instances": 10_000, "jobs": None,
                           "seed": 0xBEEF, "sigma": 0.2,
                           "device_yield": 0.9999, "technology": "EGFET",
                           "program": "mult", "width": 8, "lanes": None,
                           "block": None, "duty": 0.01, "battery": "Molex",
                           "report": None}),
    (["place", "p1_8_2"], {"fabric": "medium", "technology": "EGFET",
                           "seed": 0, "sweeps": 10, "jobs": None, "out": ".",
                           "report": None}),
    (["profile-design"], {"configs": ["p1_8_2"], "program": "crc8",
                          "technology": "EGFET",
                          "vcd": None, "energy_report": None, "top": 10,
                          "jobs": None, "max_cycles": 200_000,
                          "trace_maxlen": None, "probe": None,
                          "probe_regex": None, "profile": False,
                          "report_out": "RUN_REPORT.json"}),
    (["history", "show"], {"ledger": None, "limit": 20}),
    (["history", "check"], {"ledger": None, "kind": None, "command": None,
                            "window": history.DEFAULT_WINDOW,
                            "min_baseline": history.MIN_BASELINE,
                            "mad_k": history.MAD_K,
                            "rel_floor": history.REL_FLOOR}),
    (["history", "append"], {"report": None, "ledger": None}),
    (["dashboard"], {"out": "dashboard.html", "ledger": None,
                     "title": "repro telemetry"}),
    (["serve"], {"host": "127.0.0.1", "port": 8097, "jobs": 1, "workers": 1,
                 "max_jobs": 256, "drain_timeout": 10.0, "verbose": False}),
]


def _long_flags(spec) -> set[str]:
    options = (
        [o for verb in spec.values() for o in verb]
        if isinstance(spec, dict) else spec
    )
    return {o.flag for o in options if o.flag.startswith("--")}


def _run(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSameOptions:
    def test_flag_sets_unchanged(self):
        assert {c: _long_flags(s) for c, s in SPECS.items()} == FLAGS
        assert sum(map(len, FLAGS.values())) == 74

    @pytest.mark.parametrize(
        "argv, defaults", DEFAULTS, ids=[" ".join(a) for a, _ in DEFAULTS]
    )
    def test_defaults_unchanged(self, argv, defaults, monkeypatch):
        for option in (*SERVE_OPTIONS, cli.JOBS):
            if option.env:
                monkeypatch.delenv(option.env, raising=False)
        command = argv[0] if argv and argv[0] in SPECS else ""
        rest = argv[1:] if command else argv
        args = cli.parse(command, SPECS[command], rest)
        assert isinstance(args, Namespace)
        got = {name: getattr(args, name) for name in defaults}
        assert got == defaults


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"]])
    def test_top_level_help(self, argv, capsys):
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert "usage" in out
        for flag in FLAGS[""]:
            assert flag in out
        for command in SPECS:
            assert command in out

    @pytest.mark.parametrize("command", [c for c in SPECS if c])
    def test_command_help_lists_every_flag(self, command, capsys):
        verbs = list(SPECS[command]) if command == "history" else [None]
        shown = ""
        for verb in verbs:
            argv = [command] + ([verb] if verb else []) + ["--help"]
            code, out, _ = _run(argv, capsys)
            assert code == 0, argv
            assert "usage" in out
            shown += out
        for flag in FLAGS[command]:
            assert flag in shown, (command, flag)


#: (argv, text stderr must contain).  The first block is every failure
#: listed when the shared spec was introduced: tracebacks, exit 0 or
#: exit 1 on bad input.
BAD_INPUT = [
    (["campaign", "--program", "nosuch"], "--program"),
    (["campaign", "--config", "q9"], "--config"),
    (["campaign", "--stride", "0"], "--stride"),
    (["campaign", "--lanes", "0", "--max-faults", "4"], "--lanes"),
    (["yield", "p1_8_2", "--instances", "0"], "--instances"),
    (["yield", "p1_8_2", "--instances", "10", "--lanes", "0"], "--lanes"),
    (["verify", "--executors", "bogus", "--count", "1"], "--executors"),
    (["verify", "--count", "-1"], "--count"),
    (["history", "show", "--mad-k", "3"], "--mad-k"),
    (["history", "check", "--limit", "3"], "--limit"),
    (["yield", "q9"], "q9"),
    (["yield", "p1_8_2", "--technology", "FOO"], "--technology"),
    (["place", "p1_8_2", "--fabric", "nope"], "--fabric"),
    (["profile-design", "p1_8_2", "--backend", "bogus"], "--backend"),
    (["profile-design", "q9"], "q9"),
    # One unknown flag and one missing value per command (lint's flags
    # take no value).
    *[([c, "--bogus"] if c else ["--bogus"], "--bogus") for c in SPECS
      if c != "history"],
    (["history", "show", "--bogus"], "--bogus"),
    (["--jobs"], "--jobs"),
    (["verify", "--seed"], "--seed"),
    (["campaign", "--stride"], "--stride"),
    (["yield", "p1_8_2", "--instances"], "--instances"),
    (["place", "p1_8_2", "--seed"], "--seed"),
    (["profile-design", "p1_8_2", "--top"], "--top"),
    (["history", "check", "--window"], "--window"),
    (["dashboard", "--out"], "--out"),
    (["serve", "--port"], "--port"),
    # Non-integer and out-of-range counts.
    (["--jobs", "two", "table1"], "--jobs"),
    (["--jobs", "0", "table1"], "--jobs"),
    (["campaign", "--jobs", "x"], "--jobs"),
    (["yield", "p1_8_2", "--jobs", "-2"], "--jobs"),
    (["campaign", "--lanes", "1.5"], "--lanes"),
    (["yield", "p1_8_2", "--lanes", "0"], "--lanes"),
    (["campaign", "--stride", "eight"], "--stride"),
    (["yield", "p1_8_2", "--instances", "abc"], "--instances"),
    (["yield", "p1_8_2", "--instances", "-5"], "--instances"),
    (["verify", "--count", "many"], "--count"),
    (["verify", "--count", "0"], "--count"),
    (["serve", "--port", "65536"], "--port"),
    # Unknown choices and config names.
    (["campaign", "--backend", "jit"], "--backend"),
    (["campaign", "--backend", "batched"], "--backend"),
    (["campaign", "--verify-suite", "--backend", "compiled"], "--backend"),
    (["campaign", "--verify-suite", "--backend", "interpreted"], "--verify-suite"),
    (["campaign", "--backend", "interpreted", "--lanes", "4"], "--lanes"),
    (["place", "p1_8_2", "--technology", "FOO"], "--technology"),
    (["profile-design", "--technology", "egfet"], "--technology"),
    (["verify", "--executors", "numpy,ps_isa"], "--executors"),
    (["verify", "--configs", "p1_8_2,q9"], "--configs"),
    (["verify", "--inject-fault", "wdata:99"], "--inject-fault"),
    (["lint", "nonsense"], "nonsense"),
    (["place", "p1_8_2", "p9_8_2"], "p9_8_2"),
    (["history", "bogus-verb"], "bogus-verb"),
    (["history", "append"], "--report"),
    (["table99"], "table99"),
]


@pytest.mark.parametrize(
    "argv, needle", BAD_INPUT, ids=[" ".join(a) for a, _ in BAD_INPUT]
)
def test_bad_input_exits_2_naming_the_flag(argv, needle, capsys):
    code, _, err = _run(argv, capsys)
    assert code == 2
    # The usage block lists every flag, so the error line must name it.
    assert needle in err.splitlines()[-1]
    assert "usage" in err
    assert "Traceback" not in err


def test_bad_env_value_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SERVE_PORT", "http")
    code, _, err = _run(["serve"], capsys)
    assert code == 2
    assert "REPRO_SERVE_PORT" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
@pytest.mark.parametrize("argv", [["fig7"], ["yield", "p1_8_2"], ["verify"]])
def test_bad_repro_jobs_exits_2_naming_it(argv, value, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", value)
    code, _, err = _run(argv, capsys)
    assert code == 2
    assert "REPRO_JOBS" in err
    assert "Traceback" not in err


def test_repro_jobs_sets_the_jobs_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert cli.parse("", TABLE_OPTIONS, ["fig7"]).jobs == 3
    assert cli.parse("", TABLE_OPTIONS, ["--jobs", "2", "fig7"]).jobs == 2


_JUNK = st.sampled_from([
    "--", "-", "-x", "--bogus", "--=", "=", "", " ", "0", "-1", "1e9", "nan",
    "0x", "p1_8_2", "p0_0_0", "q9", "all", "export", "show", "check",
    "é", "--help",
])


@st.composite
def _argv(draw, spec):
    options = (
        [o for verb in spec.values() for o in verb]
        if isinstance(spec, dict) else list(spec)
    )
    tokens = []
    if isinstance(spec, dict) and draw(st.booleans()):
        tokens.append(draw(st.sampled_from(list(spec))))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            tokens.append(draw(_JUNK))
        else:
            option = draw(st.sampled_from(options))
            tokens.append(option.flag)
            if kind == 2:
                tokens.append(draw(st.one_of(_JUNK, st.text(max_size=8))))
    return tokens


@pytest.mark.parametrize("command", list(SPECS))
def test_parse_never_raises(command):
    spec = SPECS[command]

    @settings(max_examples=60, deadline=None)
    @given(argv=_argv(spec))
    def check(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = cli.parse(command, spec, argv)
        assert isinstance(result, Namespace) or result in (0, 2)

    check()


#: serve kind -> (command spec, its config option is positional).
KINDS = {
    "yield": (YIELD_OPTIONS, True),
    "campaign": (CAMPAIGN_OPTIONS, False),
    "profile": (PROFILE_OPTIONS, True),
    "place": (PLACE_OPTIONS, True),
}

_VALUES = {
    "config": st.sampled_from([c.name for c in standard_sweep()]),
    "width": st.integers(1, 64),
    "instances": st.integers(1, 10**6),
    "sigma": st.floats(0.0, 2.0),
    "device_yield": st.floats(0.0, 1.0, exclude_min=True),
    "seed": st.integers(0, 2**64),
    "stride": st.integers(1, 4096),
    "max_faults": st.integers(1, 10**5),
    "max_cycles": st.integers(1, 10**7),
    "sweeps": st.integers(0, 100),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_cli_and_serve_agree(kind):
    spec, positional = KINDS[kind]
    defaults = canonical_params(kind, {})
    by_name = {o.name: o for o in spec}

    def value(name):
        option = by_name.get(name, cli.CONFIG)
        if option.choices:
            return st.sampled_from(option.choices)
        return _VALUES[name]

    @st.composite
    def params(draw):
        names = draw(st.sets(st.sampled_from(sorted(defaults))))
        if positional:
            names.add("config")
        return {name: draw(value(name)) for name in sorted(names)}

    @settings(max_examples=40, deadline=None)
    @given(values=params())
    def check(values):
        argv = []
        for name, raw in values.items():
            if name == "config" and positional:
                argv.append(raw)
            else:
                argv += [by_name[name].flag, str(raw)]
        args = cli.parse(kind, spec, argv)
        assert isinstance(args, Namespace), argv
        from_cli = {
            name: (
                args.configs[0] if name == "config" and positional
                else getattr(args, name)
            )
            for name in defaults
        }
        native = canonical_params(kind, values)
        strings = canonical_params(
            kind, {name: str(raw) for name, raw in values.items()}
        )
        assert from_cli == native == strings
        assert job_key(kind, from_cli) == job_key(kind, strings)

    check()
