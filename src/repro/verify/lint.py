"""Static netlist lint: structural defects no simulation is needed for.

The differential fuzzer exercises behaviour; this pass catches the
structural mistakes that often *escape* simulation because the
zero-initialized simulator hides them (a printed die does not power up
zeroed).  Rules:

``comb-loop``
    A cycle through combinational cells only.  Simulators iterate such
    loops to a fixed point; silicon (or printed foil) oscillates or
    latches unpredictably.  Error.
``multi-driven``
    A net driven by more than one instance, or an instance driving a
    primary input or constant net.  Recomputed from the instance list
    itself, so netlists assembled outside the builder API (e.g.
    deserialized) are covered too.  Error.
``floating-input``
    An instance input net with no driver that is neither a primary
    input nor a constant.  Error.
``floating-output``
    An undriven primary output bit.  Error.
``bad-pin-count``
    An instance whose input count does not match its cell's pin list
    (an unconnected or extra pin).  Unknown cells are reported here
    too.  Error.
``unresettable-flop``
    A state element with no reset (``DFFX1``/``LATCHX1``) or whose
    reset pin cannot ever assert (``DFFNRX1`` with ``rn`` tied high).
    An *error* when the flop holds control state (``pc``, ``flag_``,
    ``bar``, ``valid`` -- an unknown power-up value wedges the core);
    *info* for datapath registers, which the generated pipelines
    intentionally leave reset-free (their values are dead until the
    first valid instruction reaches them).
``dangling-cell``
    A cell output that nothing consumes and that is not a primary
    output: dead area on the foil.  Warning.

A report is "ok" when it has no errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.core import CELL_ARITY, CONST0, CONST1, Netlist, SEQUENTIAL_CELLS
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span

_FINDINGS = _obs_counter("verify.lint_findings")

#: Q-net name prefixes that mark *control* state: these must reset.
CONTROL_STATE_PREFIXES = ("pc", "flag_", "bar", "valid")

#: Reset-pin position of each resettable sequential cell.
RESET_PIN = {"DFFNRX1": 1}


@dataclass(frozen=True)
class LintFinding:
    """One rule violation (or advisory) on one netlist."""

    rule: str
    severity: str  # "error" | "warning" | "info"
    message: str
    nets: tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"{self.severity}[{self.rule}]: {self.message}"


@dataclass
class LintReport:
    """All findings for one design."""

    design: str
    findings: list[LintFinding] = field(default_factory=list)

    @property
    def errors(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        infos = len(self.findings) - len(self.errors) - len(self.warnings)
        verdict = "clean" if self.ok else "FAIL"
        return (
            f"{self.design}: {verdict} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings, "
            f"{infos} infos)"
        )


def lint_netlist(netlist: Netlist) -> LintReport:
    """Run every lint rule over ``netlist``."""
    with _obs_span("verify.lint", design=netlist.name) as sp:
        report = LintReport(design=netlist.name)
        add = report.findings.append
        port_nets = {n for bus in netlist.inputs.values() for n in bus}
        constants = {CONST0, CONST1}

        # Drivers recomputed from the instance list (not the builder's
        # bookkeeping dict), so rule coverage does not depend on how
        # the netlist was assembled.
        drivers: dict[int, list[int]] = {}
        for index, instance in enumerate(netlist.instances):
            drivers.setdefault(instance.output, []).append(index)

        # multi-driven ---------------------------------------------------
        for net, who in sorted(drivers.items()):
            if len(who) > 1:
                cells = ", ".join(netlist.instances[i].cell for i in who)
                add(LintFinding(
                    "multi-driven", "error",
                    f"net {netlist.net_name(net)} driven by "
                    f"{len(who)} instances ({cells})",
                    nets=(net,),
                ))
            if net in port_nets or net in constants:
                kind = "constant" if net in constants else "primary input"
                add(LintFinding(
                    "multi-driven", "error",
                    f"{netlist.instances[who[0]].cell} drives {kind} net "
                    f"{netlist.net_name(net)}",
                    nets=(net,),
                ))

        # bad-pin-count / floating-input --------------------------------
        driven = set(drivers) | port_nets | constants
        for instance in netlist.instances:
            arity = CELL_ARITY.get(instance.cell)
            if arity is None:
                add(LintFinding(
                    "bad-pin-count", "error",
                    f"unknown cell {instance.cell!r}",
                    nets=(instance.output,),
                ))
            elif len(instance.inputs) != arity:
                add(LintFinding(
                    "bad-pin-count", "error",
                    f"{instance.cell} driving {netlist.net_name(instance.output)} "
                    f"has {len(instance.inputs)} of {arity} pins connected",
                    nets=(instance.output,),
                ))
            for net in instance.inputs:
                if net not in driven:
                    add(LintFinding(
                        "floating-input", "error",
                        f"{instance.cell} input {netlist.net_name(net)} "
                        f"is floating",
                        nets=(net,),
                    ))

        # floating-output ------------------------------------------------
        for bus in netlist.outputs.values():
            for position, net in enumerate(bus):
                if net not in driven:
                    add(LintFinding(
                        "floating-output", "error",
                        f"output {bus.name}[{position}] is floating",
                        nets=(net,),
                    ))

        # comb-loop ------------------------------------------------------
        for cycle in _combinational_loops(netlist):
            names = " -> ".join(netlist.net_name(net) for net in cycle)
            add(LintFinding(
                "comb-loop", "error",
                f"combinational loop through {len(cycle)} nets: {names}",
                nets=tuple(cycle),
            ))

        # unresettable-flop ----------------------------------------------
        for instance in netlist.instances:
            if instance.cell not in SEQUENTIAL_CELLS:
                continue
            reset_pin = RESET_PIN.get(instance.cell)
            if reset_pin is not None:
                if (
                    len(instance.inputs) > reset_pin
                    and instance.inputs[reset_pin] == CONST1
                ):
                    add(LintFinding(
                        "unresettable-flop", "error",
                        f"{instance.cell} at {netlist.net_name(instance.output)} "
                        f"has its reset pin tied inactive",
                        nets=(instance.output,),
                    ))
                continue
            q_name = netlist.net_name(instance.output)
            if q_name.startswith(CONTROL_STATE_PREFIXES):
                add(LintFinding(
                    "unresettable-flop", "error",
                    f"control-state flop {q_name} ({instance.cell}) "
                    f"has no reset",
                    nets=(instance.output,),
                ))
            else:
                add(LintFinding(
                    "unresettable-flop", "info",
                    f"datapath flop {q_name} ({instance.cell}) has no reset",
                    nets=(instance.output,),
                ))

        # dangling-cell --------------------------------------------------
        consumed = {net for i in netlist.instances for net in i.inputs}
        consumed |= {net for bus in netlist.outputs.values() for net in bus}
        for instance in netlist.instances:
            if instance.output not in consumed:
                add(LintFinding(
                    "dangling-cell", "warning",
                    f"{instance.cell} output "
                    f"{netlist.net_name(instance.output)} drives nothing",
                    nets=(instance.output,),
                ))

        _FINDINGS.inc(len(report.findings))
        sp.note(findings=len(report.findings), errors=len(report.errors))
    return report


def _combinational_loops(netlist: Netlist) -> list[list[int]]:
    """Cycles in the combinational net graph (sequential cells cut it).

    Iterative DFS with an explicit stack; returns each distinct cycle
    once, as the list of nets along it.
    """
    comb_driver = {
        instance.output: instance
        for instance in netlist.instances
        if instance.cell not in SEQUENTIAL_CELLS
    }
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {net: WHITE for net in comb_driver}
    loops: list[list[int]] = []
    for root in comb_driver:
        if color[root] != WHITE:
            continue
        path: list[int] = []
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            net, edge = stack[-1]
            if edge == 0:
                color[net] = GRAY
                path.append(net)
            fanin = [
                n for n in comb_driver[net].inputs if n in comb_driver
            ]
            if edge < len(fanin):
                stack[-1] = (net, edge + 1)
                child = fanin[edge]
                if color[child] == GRAY:
                    loops.append(path[path.index(child):] + [child])
                elif color[child] == WHITE:
                    stack.append((child, 0))
            else:
                color[net] = BLACK
                path.pop()
                stack.pop()
    return loops


def lint_core(config) -> LintReport:
    """Generate (or fetch from cache) the core for ``config`` and lint it."""
    from repro.coregen.generator import generate_core

    return lint_netlist(generate_core(config))
