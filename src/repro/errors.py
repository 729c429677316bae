"""Exception hierarchy for the printed-microprocessors reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing assembly errors from simulation errors, etc.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class PDKError(ReproError):
    """A standard-cell library or compact-model query failed."""


class UnknownCellError(PDKError):
    """A cell name was requested that the library does not provide."""

    def __init__(self, name: str, library: str) -> None:
        super().__init__(f"cell {name!r} is not in library {library!r}")
        self.name = name
        self.library = library


class NetlistError(ReproError):
    """A netlist was constructed or queried inconsistently."""


class MappingError(NetlistError):
    """Technology mapping failed (unknown logic op or bad arity)."""


class TimingError(NetlistError):
    """Static timing analysis failed (e.g. combinational loop)."""


class SimulationError(ReproError):
    """Gate-level or instruction-level simulation failed."""


class UnsupportedInLaneMode(SimulationError):
    """A scalar-only feature was requested from a lane-packed run.

    Bit-parallel and numpy bit-slice simulators advance many
    independent runs per pass and do not maintain per-instance toggle
    counters (each lane would need a popcount per instance per cycle).
    Callers that need toggle/power data must use the interpreted
    simulator; asking a lane simulator raises this instead of silently
    returning stale zeros.
    """

    def __init__(self, feature: str, simulator: str) -> None:
        super().__init__(
            f"{feature} is not available in lane mode ({simulator} packs "
            "many independent runs per pass and keeps no per-instance "
            "toggle state); use the interpreted CycleSimulator when "
            "toggle/power data is needed"
        )
        self.feature = feature
        self.simulator = simulator


class IsaError(ReproError):
    """An instruction could not be encoded, decoded, or validated."""


class AssemblerError(ReproError):
    """Assembly source was malformed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        location = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line


class ProgramError(ReproError):
    """A program image violated a machine constraint (size, width...)."""


class MemoryModelError(ReproError):
    """A memory-array model was configured inconsistently."""


class PlacementError(ReproError):
    """A design could not be placed on a printed fabric.

    Raised for malformed fabrics, unknown fabric names, and designs
    whose slot demand overflows the fabric's capacity (the message
    carries the fit report's per-kind diagnostics).
    """


class ConfigError(ReproError):
    """A core or system configuration was invalid."""
