"""One option spec for every ``python -m repro`` command and ``repro serve``.

Each command declares its options once, as a tuple of :class:`Option`
records next to its entry point.  :func:`parse` builds a stdlib
:mod:`argparse` parser from the tuple, and
:func:`repro.serve.drivers.canonical_params` coerces job parameters
through the same records, so each default, type and range exists once.
Bad input gets one stderr message naming the flag plus the usage line,
and exit status 2 (HTTP 400 on serve), never a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.coregen.config import config_from_name
from repro.errors import ConfigError
from repro.pdk import TECHNOLOGIES
from repro.programs import BENCHMARKS


@dataclass(frozen=True)
class Option:
    """One flag (``--name``) or positional (bare name) of a command.

    ``parse`` turns one token into a value, raising ``ValueError`` or
    :class:`ConfigError` with a message; ``None`` makes a switch.
    ``choices`` restricts the value (each item of a tuple value).
    ``env`` names a variable that replaces ``default`` when set.
    ``many`` lets a positional take several values, and a flag repeat
    with its values accumulating.  ``short`` is a one-dash alias.
    """

    flag: str
    parse: Callable[[str], Any] | None = str
    default: Any = None
    help: str = ""
    choices: tuple = ()
    env: str | None = None
    many: bool = False
    short: str | None = None

    @property
    def name(self) -> str:
        """Namespace attribute and serve parameter (``max_faults``)."""
        return self.flag.lstrip("-").replace("-", "_")

    def convert(self, raw: Any) -> Any:
        """The value of one CLI token or one serve (JSON) parameter."""
        if self.parse is None:
            if raw in (True, False):
                return bool(raw)
            raise ValueError(f"expected true or false, got {raw!r}")
        value = self.parse(str(raw))
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if self.choices and item not in self.choices:
                noun = self.name.removesuffix("s") if items is value else self.name
                raise ValueError(
                    f"unknown {noun} {item!r} "
                    f"(choose from {' | '.join(self.choices)})"
                )
        return value


def number(kind: type = int, low=None, high=None, above=None):
    """Parser of a finite int or float in ``[low, high]``, ``> above``.

    Integers may be written in any Python literal base (``0xBEEF``).
    """

    def parse(text: str):
        """One bounded number from ``text``; ``ValueError`` names the problem."""
        try:
            if kind is float:
                value = float(text)
            else:  # int(text, 0) alone would reject leading zeros
                digits = text.strip().lstrip("+-").isdigit()
                value = int(text) if digits else int(text, 0)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ValueError(f"expected {noun}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        for bad, why in ((low is not None and value < low, f">= {low}"),
                         (high is not None and value > high, f"<= {high}"),
                         (above is not None and value <= above, f"> {above}")):
            if bad:
                raise ValueError(f"must be {why}, got {value}")
        return value

    return parse


def comma_list(item: Callable[[str], Any] = str):
    """Parser of a non-empty comma-separated list (a tuple)."""

    def parse(text: str) -> tuple:
        """The items of ``text``; ``ValueError`` if there are none."""
        values = tuple(item(part) for part in text.split(",") if part)
        if not values:
            raise ValueError(f"expected a comma-separated list, got {text!r}")
        return values

    return parse


def config_name(text: str) -> str:
    """A validated ``pP_D_B`` core configuration name."""
    try:
        return config_from_name(text).name
    except ConfigError as error:
        message = str(error)
        raise ValueError(
            message if repr(text) in message else f"{text!r}: {message}"
        ) from None


positive_int = number(int, low=1)

# Options several commands share.
JOBS = Option("--jobs", positive_int, None, "worker processes; None runs 1",
              env="REPRO_JOBS")
SEED = Option("--seed", number(int, low=0), 0, "random seed")
TECHNOLOGY = Option("--technology", str, "EGFET", "printed technology",
                    choices=(*TECHNOLOGIES, "CNT-TFT"))
PROGRAM = Option("--program", str, "mult", "benchmark",
                 choices=tuple(BENCHMARKS))
WIDTH = Option("--width", positive_int, 8, "benchmark kernel width")
REPORT = Option("--report", str, None, "also write a run report here")
CONFIG = Option("--config", config_name, "p1_8_2",
                "core configuration pP_D_B")
CONFIGS = Option("configs", config_name, None,
                 "core configurations pP_D_B", many=True)

Spec = Sequence[Option] | Mapping[str, Sequence[Option]]


class _Formatter(argparse.ArgumentDefaultsHelpFormatter,
                 argparse.RawDescriptionHelpFormatter):
    """Keep the docstring's layout and show every default."""


def _add(parser: argparse.ArgumentParser, option: Option) -> None:
    def convert(text: str) -> Any:
        try:
            return option.convert(text)
        except (ValueError, ConfigError) as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    help_text = option.help.replace("%", "%%")
    if option.env:
        help_text += f" [env {option.env}]"
    kwargs: dict[str, Any] = {"default": option.default, "help": help_text}
    if not option.flag.startswith("-"):
        # A missing required positional is reported after unknown
        # flags (see parse), so nargs stays "*" either way.
        if option.default is None:
            kwargs["help"] += " (required)"
        parser.add_argument(option.name, nargs="*", type=convert,
                            metavar=option.name.upper(), **kwargs)
    elif option.parse is None:
        flags = [option.short, option.flag] if option.short else [option.flag]
        parser.add_argument(*flags, dest=option.name, action="store_true",
                            **kwargs)
    else:
        parser.add_argument(option.flag, dest=option.name, type=convert,
                            action="extend" if option.many else "store",
                            metavar=option.name.upper(), **kwargs)


def _build(prog: str, spec: Spec, doc: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {prog}".rstrip(), description=doc,
        formatter_class=_Formatter, allow_abbrev=False,
    )
    if isinstance(spec, Mapping):
        verbs = parser.add_subparsers(dest="verb", metavar="VERB",
                                      required=True)
        for verb, options in spec.items():
            sub = verbs.add_parser(verb, formatter_class=_Formatter,
                                   allow_abbrev=False, help=f"{prog} {verb}")
            for option in options:
                _add(sub, option)
    else:
        for option in spec:
            _add(parser, option)
    return parser


def parse(prog: str, spec: Spec, argv: Sequence[str], doc: str | None = None):
    """Parse ``argv`` against ``spec``: a namespace, or an exit status.

    ``spec`` is a tuple of options, or ``{verb: options}`` for a command
    with verbs (the verb lands in ``namespace.verb``).  Returns 0 after
    ``--help``, and 2 after printing one message naming the bad flag or
    ``env`` variable plus the usage line to stderr.
    """
    parser = _build(prog, spec, doc)
    options = () if isinstance(spec, Mapping) else tuple(spec)
    # argparse reports bad input by printing and raising SystemExit.
    try:
        for option in options:
            raw = os.environ.get(option.env, "") if option.env else ""
            if raw:
                try:
                    value = option.convert(raw)
                except (ValueError, ConfigError) as error:
                    parser.error(f"{option.env}: {error}")
                parser.set_defaults(**{option.name: value})
        # Subparsers cannot be parsed intermixed; verbs take no positionals.
        args, extra = (
            parser.parse_known_args(list(argv)) if isinstance(spec, Mapping)
            else parser.parse_known_intermixed_args(list(argv))
        )
        if extra:
            word = extra[0]
            parser.error(f"unknown option {word}" if word.startswith("-")
                         else f"unexpected argument {word!r}")
        for option in options:
            required = option.default is None and not option.flag.startswith("-")
            if required and not getattr(args, option.name):
                parser.error(f"{option.name.upper()} is required")
    except SystemExit as done:
        return done.code
    return args


def usage_error(prog: str, spec: Spec, message: str) -> int:
    """Report a bad combination of valid flags as :func:`parse` does: 2."""
    parser = _build(prog, spec, None)
    parser.print_usage(sys.stderr)
    print(f"{parser.prog}: error: {message}", file=sys.stderr)
    return 2


def unwritable(prog: str, spec: Spec, flag: str, path, error: OSError) -> int:
    """Report that ``flag``'s ``path`` cannot be written, as :func:`parse`
    reports bad input: one message naming the flag, and 2."""
    return usage_error(
        prog, spec, f"{flag}: cannot write {path}: {error.strerror or error}"
    )
