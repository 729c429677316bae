"""Per-layer spans for the traced benchmark run, recorded from outside ``repro``.

The traced run wraps the public entry point of each ``repro`` layer from
the benchmark's own files; nothing under ``src/`` changes.  Several
modules import these functions by name (``repro.mc.engine`` binds
``sample_delays``, ``repro.dse.sweep`` and ``repro.eval.system`` bind
``timing_report``, ...), so :meth:`Tracer.install` replaces *every*
binding of each function in the loaded ``repro`` modules, and wraps
methods on their class.  :meth:`Tracer.uninstall` puts every original
back, including bindings made by modules imported while installed.

Each wrapper appends one span per call to an in-memory list: layer,
start, end, parent span and the root span (set-up or one timed op) it
ran under, plus optional work counts.  A layer's self time is its span
minus its child spans; a root span's self time is op time that no
wrapper covers.  A target whose function no longer exists is skipped
and listed in :attr:`Tracer.skipped` (the run prints it), so a layer
that reads 0 because its entry point was renamed does not pass for a
gain.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Callable

#: Attribute set on every wrapper (tests look for leftovers).
MARKER = "_perfbench_layer"


def _cosim_layer(args: inspect.BoundArguments) -> str:
    backend = args.arguments.get("backend", "compiled")
    return "netlist.sim.cosim_s" if backend == "interpreted" else "netlist.compile.cosim_s"


def _lane_layer(args: inspect.BoundArguments) -> str:
    # The lane simulator class lives in repro.netlist.nsim (numpy) or
    # repro.netlist.compile (bigint); name the layer after its module.
    simulator = args.arguments["simulator"]
    return f"netlist.{simulator.__module__.rsplit('.', 1)[-1]}.lanes_s"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``layer`` is the self-time metric name, or a function of the bound
    call arguments that picks it.  Work counters, summed per root kind,
    come from ``count`` (the call's arguments, taken before the call, so
    a call that raises is counted too) or from ``result_count`` (its
    return value, so only calls that return are counted).
    """

    module: str
    attr: str
    layer: str | Callable[[inspect.BoundArguments], str]
    count: Callable[[inspect.BoundArguments], dict] | None = None
    result_count: Callable[[object], dict] | None = None


def _machine_count(result) -> dict:
    # Every caller runs a fresh Machine once, so its stats are this run's.
    return {"instructions": result.stats.instructions}


def _lane_count(args) -> dict:
    lanes = len(args.arguments["fault_sets"])
    return {"lanes": lanes, "lane_cycles": lanes * args.arguments["cycles"]}


TARGETS = (
    Target("repro.sim.machine", "Machine.run", "sim.machine.self_s",
           result_count=_machine_count),
    Target(
        "repro.netlist.sta", "timing_report", "netlist.sta.self_s",
        lambda args: {"sta_cells": len(args.arguments["netlist"].instances)},
    ),
    Target("repro.netlist.power", "power_report", "netlist.power.self_s"),
    Target("repro.netlist.stats", "area_report", "netlist.stats.self_s"),
    Target("repro.programs.suite", "build_benchmark", "programs.self_s"),
    Target("repro.eval.system", "evaluate_system", "eval.system.self_s"),
    Target("repro.dse.sweep", "evaluate_design", "dse.sweep.self_s"),
    Target(
        "repro.exec.cache", "load_artifact", "exec.cache.load_s",
        result_count=lambda result: {"cache_hits": int(result is not None)},
    ),
    Target("repro.exec.cache", "store_artifact", "exec.cache.store_s"),
    Target("repro.coregen.generator", "generate_core", "coregen.self_s"),
    Target("repro.netlist.compile", "compile_netlist", "netlist.compile.codegen_s"),
    Target("repro.netlist.nsim", "compile_numpy_netlist", "netlist.nsim.codegen_s"),
    Target("repro.coregen.cosim", "cosim_verify", _cosim_layer),
    Target("repro.verify.differential", "lane_verify", _lane_layer),
    Target("repro.coregen.fault_test", "lane_signatures", "netlist.nsim.lanes_s", _lane_count),
    Target("repro.coregen.fault_test", "golden_signature", "coregen.fault_test.self_s"),
    Target("repro.coregen.fault_test", "prepare_context", "coregen.fault_test.self_s"),
    Target("repro.mc.sampling", "SubstreamSampler.normals", "mc.sampling.self_s"),
    Target("repro.mc.sampling", "SubstreamSampler.uniforms", "mc.sampling.self_s"),
    Target("repro.mc.sampling", "SubstreamSampler.bits", "mc.sampling.self_s"),
    Target("repro.mc.timing", "sample_delays", "mc.timing.self_s"),
    Target("repro.mc.timing", "nominal_delay", "mc.timing.self_s"),
    Target("repro.mc.fyield", "sample_defects", "mc.fyield.self_s"),
    Target(
        "repro.mc.fyield", "safe_signatures", "mc.fyield.self_s",
        lambda args: {"units_judged": len(args.arguments["fault_sets"])},
    ),
    Target("repro.mc.sketch", "QuantileSketch.add_array", "mc.sketch.self_s"),
    Target("repro.mc.sketch", "QuantileSketch.merge", "mc.sketch.self_s"),
    Target("repro.mc.sketch", "QuantileSketch.quantile", "mc.sketch.self_s"),
    Target("repro.mc.engine", "run_yield_campaign", "mc.engine.self_s"),
    Target("repro.verify.generator", "random_program", "verify.generator.self_s"),
    Target("repro.verify.differential", "differential_check", "verify.differential.self_s"),
    Target("repro.exec.engine", "parallel_map", "exec.engine.self_s"),
)


class _Span:
    __slots__ = ("layer", "start", "end", "parent", "root", "target", "counts")

    def __init__(self, layer, start, parent, root, target, counts):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.target = target
        self.counts = counts


@dataclass
class LayerTotals:
    """Spans under every root of one kind, summed per layer."""

    roots: int
    self_s: dict
    calls: dict
    counts: dict


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}  # id(wrapper) -> (wrapper, original)
        self._methods: list[tuple[type, str, object]] = []
        #: ``module.attr`` of each target not found when installing.
        self.skipped: set[str] = set()
        self.installed = False

    # -- recording -------------------------------------------------------

    def _open(self, layer: str, target, counts=None) -> _Span:
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent].root if parent is not None else len(self.spans)
        span = _Span(layer, time.perf_counter(), parent, root, target, counts)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """Open a root span (``"setup"`` or ``"op"``) around a block."""
        span = self._open(kind, None)
        try:
            yield
        finally:
            self._close(span)

    def _wrapper(self, target: Target, original):
        tracer = self
        signature = (
            inspect.signature(original)
            if callable(target.layer) or target.count is not None
            else None
        )

        @wraps(original)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            layer = target.layer(bound) if callable(target.layer) else target.layer
            counts = target.count(bound) if target.count is not None else None
            span = tracer._open(layer, target, counts)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.result_count is not None:
                span.counts = target.result_count(result)
            return result

        setattr(wrapper, MARKER, target)
        self._wrapped[id(wrapper)] = (wrapper, original)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; one that no longer exists is added to :attr:`skipped`."""
        if self.installed:
            return
        functions = {}  # id(original) -> wrapper
        for target in TARGETS:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                owner = None
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                cls = getattr(owner, class_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
            else:
                cls, original = None, getattr(owner, target.attr, None)
            if not callable(original):
                self.skipped.add(f"{target.module}.{target.attr}")
            elif cls is not None:
                self._methods.append((cls, method, original))
                setattr(cls, method, self._wrapper(target, original))
            else:
                functions[id(original)] = self._wrapper(target, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every original binding and method."""
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        for cls, method, original in self._methods:
            setattr(cls, method, original)
        self._methods.clear()
        self._wrapped.clear()
        self.installed = False

    # -- aggregation -----------------------------------------------------

    def totals(self, kind: str) -> LayerTotals:
        """Self time, call counts and work counts under roots of ``kind``.

        A root span's own self time lands under ``unattributed_s``.  A
        recursive call's counts are skipped, so a count made at a
        layer's entry is made once per outermost call.
        """
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        counts: dict = defaultdict(float)
        roots = 0
        for index, span in enumerate(self.spans):
            if self.spans[span.root].layer != kind:
                continue
            own = span.end - span.start - children[index]
            if span.target is None:
                roots += 1
                self_s["unattributed_s"] += own
                continue
            self_s[span.layer] += own
            calls[span.layer] += 1
            if span.counts and self.spans[span.parent].target is not span.target:
                for name, value in span.counts.items():
                    counts[name] += value
        return LayerTotals(roots, dict(self_s), dict(calls), dict(counts))
