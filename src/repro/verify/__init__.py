"""Differential fuzzing and static netlist lint (``docs/VERIFY.md``).

The verification subsystem closes the loop the unit tests cannot: it
generates arbitrary (well-formed, halting) TP-ISA programs, runs each
one through *every* execution model in the repository -- ISS,
interpreted gate-level simulation, bigint and numpy lanes, and the
program-specific shrunken core -- and flags any architectural
disagreement.  Failures shrink to minimal pytest-ready repros; a
static lint pass independently checks every generated netlist for
structural defects (combinational loops, multi-driven or floating
nets, unresettable control flops).

Command line::

    python -m repro verify --seed 0 --count 50
    python -m repro lint --all
"""

from repro.verify.corpus import (
    CampaignResult,
    CaseResult,
    DEFAULT_CONFIGS,
    run_campaign,
)
from repro.verify.differential import (
    DEFAULT_EXECUTORS,
    Divergence,
    differential_check,
    fault_site_for_output,
    lane_verify,
    ps_isa_variant,
    remap_bars,
)
from repro.verify.generator import random_program
from repro.verify.lint import (
    LintFinding,
    LintReport,
    lint_core,
    lint_netlist,
)
from repro.verify.shrink import ShrinkResult, emit_pytest_case, shrink

__all__ = [
    "CampaignResult",
    "CaseResult",
    "DEFAULT_CONFIGS",
    "DEFAULT_EXECUTORS",
    "Divergence",
    "LintFinding",
    "LintReport",
    "ShrinkResult",
    "differential_check",
    "emit_pytest_case",
    "fault_site_for_output",
    "lane_verify",
    "lint_core",
    "lint_netlist",
    "ps_isa_variant",
    "random_program",
    "remap_bars",
    "run_campaign",
    "shrink",
]
