"""Value-change-dump (VCD) waveform emission.

A :class:`VcdWriter` serializes sampled signal values into the
IEEE-1364 VCD format that every open-source waveform viewer (GTKWave,
Surfer, the WaveTrace family) reads.  It is a pure formatter: the
design-under-test side -- which nets to probe, when to sample them --
lives in :mod:`repro.netlist.probe`; this module only knows names,
widths, scopes, and values.

Conventions:

* **time unit = one clock cycle.**  The printed cores clock at a few
  Hz to a few kHz, so the dump declares a ``1 us`` timescale purely to
  keep viewers happy; ``#N`` marks the *N*-th simulated cycle.
* **hierarchical scopes** are passed per signal as a tuple of scope
  names (e.g. ``("flags",)``); the writer groups declarations into
  nested ``$scope module`` blocks under one top-level scope named
  after the design.
* **deterministic output**: identifier codes are assigned in
  declaration order and no wall-clock data is embedded unless a
  ``date`` string is supplied, so two runs of the same simulation
  produce byte-identical dumps (asserted by the writer tests).

Usage::

    writer = VcdWriter("core", timescale="1 us")
    pc = writer.declare("pc", 8, scope=())
    z = writer.declare("Z", 1, scope=("flags",))
    writer.start({pc: 0, z: 0})          # header + $dumpvars
    writer.sample(1, {pc: 1})            # only changed values
    text = writer.render()               # or writer.write(path)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: First/last printable characters usable as VCD identifier codes.
_ID_FIRST, _ID_LAST = 33, 126
_ID_RANGE = _ID_LAST - _ID_FIRST + 1


def _id_code(index: int) -> str:
    """Compact printable identifier code for the ``index``-th variable."""
    chars = []
    index += 1
    while index > 0:
        index -= 1
        chars.append(chr(_ID_FIRST + index % _ID_RANGE))
        index //= _ID_RANGE
    return "".join(reversed(chars))


@dataclass(frozen=True)
class VcdVar:
    """One declared VCD variable (returned by :meth:`VcdWriter.declare`)."""

    name: str
    width: int
    scope: tuple[str, ...]
    code: str


def format_value(value: int, width: int, code: str) -> str:
    """One VCD value-change line: scalar ``0!`` or vector ``b1010 !``."""
    if width == 1:
        return f"{value & 1}{code}"
    return f"b{value:0{width}b} {code}"


class VcdWriter:
    """Accumulates declarations and samples, then renders a VCD text.

    Args:
        design: Top-level scope name (usually the netlist name).
        timescale: VCD timescale declaration; one time unit is one
            simulated clock cycle regardless of this label.
        date: Optional ``$date`` contents; omitted when ``None`` so
            dumps are reproducible by default.
    """

    def __init__(
        self,
        design: str,
        timescale: str = "1 us",
        date: str | None = None,
    ) -> None:
        self.design = design
        self.timescale = timescale
        self.date = date
        self._vars: list[VcdVar] = []
        self._lines: list[str] = []
        self._last: dict[str, int] = {}
        self._started = False
        self._time: int | None = None

    # -- declaration ------------------------------------------------------

    def declare(self, name: str, width: int, scope: tuple[str, ...] = ()) -> VcdVar:
        """Register a signal before :meth:`start`; returns its handle."""
        if self._started:
            raise ValueError("cannot declare variables after start()")
        if width < 1:
            raise ValueError(f"variable {name!r} needs a positive width")
        var = VcdVar(name, width, tuple(scope), _id_code(len(self._vars)))
        self._vars.append(var)
        return var

    # -- emission ------------------------------------------------------------

    def _header(self) -> list[str]:
        lines: list[str] = []
        if self.date is not None:
            lines += ["$date", f"    {self.date}", "$end"]
        lines += [
            "$version",
            "    repro.obs.wave (printed-microprocessors reproduction)",
            "$end",
            f"$timescale {self.timescale} $end",
            f"$scope module {self.design} $end",
        ]
        # Group variables by scope path, emitting each nested scope
        # once, in first-declaration order.
        scopes: list[tuple[str, ...]] = []
        for var in self._vars:
            if var.scope not in scopes:
                scopes.append(var.scope)
        for scope in scopes:
            for name in scope:
                lines.append(f"$scope module {name} $end")
            for var in self._vars:
                if var.scope != scope:
                    continue
                suffix = f" [{var.width - 1}:0]" if var.width > 1 else ""
                lines.append(
                    f"$var wire {var.width} {var.code} {var.name}{suffix} $end"
                )
            lines.extend("$upscope $end" for _ in scope)
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        return lines

    def start(self, initial: dict[VcdVar, int], time: int = 0) -> None:
        """Emit the header and ``$dumpvars`` block with initial values."""
        if self._started:
            raise ValueError("start() called twice")
        missing = [v.name for v in self._vars if v not in initial]
        if missing:
            raise ValueError(f"missing initial values for {missing}")
        self._started = True
        self._lines = self._header()
        self._lines.append(f"#{time}")
        self._lines.append("$dumpvars")
        for var in self._vars:
            value = initial[var]
            self._last[var.code] = value
            self._lines.append(format_value(value, var.width, var.code))
        self._lines.append("$end")
        self._time = time

    def sample(self, time: int, values: dict[VcdVar, int]) -> int:
        """Record changed values at ``time``; returns the change count.

        Unchanged values are elided (standard VCD delta encoding) and
        a timestamp is only emitted when at least one value changed.
        """
        if not self._started:
            raise ValueError("sample() before start()")
        if self._time is not None and time <= self._time:
            raise ValueError(f"time {time} is not after {self._time}")
        changes = [
            (var, value)
            for var, value in values.items()
            if self._last.get(var.code) != value
        ]
        if not changes:
            return 0
        self._lines.append(f"#{time}")
        for var, value in changes:
            self._last[var.code] = value
            self._lines.append(format_value(value, var.width, var.code))
        self._time = time
        return len(changes)

    # -- output ------------------------------------------------------------

    def render(self) -> str:
        """The complete dump as one string (header emitted lazily)."""
        lines = self._lines if self._started else self._header()
        return "\n".join(lines) + "\n"

    def write(self, path) -> Path:
        """Serialize the dump to ``path``; returns the written path.

        Missing parent directories are created (CLI runs point this
        at artifact directories that may not exist yet).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render())
        return path
