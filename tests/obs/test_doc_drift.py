"""Doc-drift guard: the observability docs vs the metrics registry.

Every dotted metric name docs/OBSERVABILITY.md or docs/SERVE.md
mentions in backticks must exist in the process-wide registry once the
instrumented modules are imported; a renamed or deleted metric fails
here instead of silently rotting in the documentation.  SERVE.md's
Prometheus names (``repro_*``) must additionally match what the
exposition layer actually renders for a registered metric.
"""

import importlib
import re
from pathlib import Path

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
SERVE_DOC = DOC.parent / "SERVE.md"

#: Modules that register metrics at import time (the doc's name list
#: spans all of these subsystems).
INSTRUMENTED_MODULES = (
    "repro.netlist.sim",
    "repro.netlist.compile",
    "repro.netlist.sta",
    "repro.netlist.power",
    "repro.coregen.generator",
    "repro.coregen.cosim",
    "repro.coregen.fault_test",
    "repro.dse.sweep",
    "repro.exec.engine",
    "repro.sim.machine",
    "repro.apps.profile",
    "repro.verify.differential",
    "repro.verify.lint",
    "repro.obs.history",
    "repro.mc.sampling",
    "repro.mc.timing",
    "repro.mc.engine",
    "repro.place.placer",
    "repro.apps.place",
    "repro.serve.jobs",
    "repro.serve.server",
)

#: A backticked span counts as a metric name when it is all-lowercase
#: dotted words; module paths (``repro.*``) and filenames are not.
_METRIC = re.compile(r"[a-z][a-z_]*(?:\.[a-z_]+)+")
_NOT_METRICS = (".py", ".md", ".json", ".jsonl", ".vcd")

#: The doc's naming-convention placeholder, not a real metric.
_PLACEHOLDER = "subsystem.quantity"

#: History-ledger *series* namespaces (see the "Run history" section):
#: derived per-record numbers, not registry metrics.  ``place.<design>``
#: series (``place.p1_8_2.hpwl_m``) are written generically in the doc
#: as ``place.<design>.*`` placeholders, which the metric regex already
#: skips (angle brackets are not ``[a-z_.]``).
_SERIES_PREFIXES = ("bench.", "stage.", "metric.", "campaign.")


#: Backticked dotted spans in SERVE.md that are not registry metrics:
#: Chrome-trace field paths and per-kind ledger series examples.
_SERVE_NON_METRICS = ("args.trace_id", "serve.sweep.wall_s")


def documented_metric_names(doc: Path = DOC) -> set[str]:
    """Dotted metric names mentioned in one observability doc."""
    # Drop fenced code blocks first: their ``` markers would otherwise
    # break the inline-backtick pairing below.
    text = re.sub(r"```.*?```", "", doc.read_text(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        if _METRIC.fullmatch(span) is None:
            continue
        if span.startswith("repro.") or span.endswith(_NOT_METRICS):
            continue
        if span == _PLACEHOLDER or span.startswith(_SERIES_PREFIXES):
            continue
        if span in _SERVE_NON_METRICS:
            continue
        names.add(span)
    return names


class TestDocDrift:
    def test_doc_mentions_a_real_name_list(self):
        names = documented_metric_names()
        assert len(names) >= 10  # the doc enumerates the conventions
        assert "sim.cycles_simulated" in names
        assert "power.attributed_reports" in names
        assert "profile.design_runs" in names

    def test_every_documented_metric_is_registered(self):
        from repro.obs.metrics import REGISTRY

        for module in INSTRUMENTED_MODULES:
            importlib.import_module(module)
        registered = set(REGISTRY.snapshot())
        missing = documented_metric_names() - registered
        assert not missing, (
            f"docs/OBSERVABILITY.md mentions unregistered metrics: "
            f"{sorted(missing)}"
        )


class TestServeDocDrift:
    """docs/SERVE.md vs the serve layer's registry and exposition."""

    def _registered(self):
        from repro.obs.metrics import REGISTRY

        for module in INSTRUMENTED_MODULES:
            importlib.import_module(module)
        return REGISTRY

    def test_serve_doc_names_a_real_metric_list(self):
        names = documented_metric_names(SERVE_DOC)
        assert "serve.dedup_hits" in names
        assert "serve.queue_wait_s" in names
        assert "serve.jobs.failed" in names
        assert "serve.job.wall_s" in names

    def test_every_serve_documented_metric_is_registered(self):
        registry = self._registered()
        missing = documented_metric_names(SERVE_DOC) - set(registry.snapshot())
        assert not missing, (
            f"docs/SERVE.md mentions unregistered metrics: {sorted(missing)}"
        )

    def test_documented_prometheus_names_match_exposition(self):
        from repro.obs.metrics import Histogram
        from repro.obs.promtext import sanitize_name

        registry = self._registered()
        exported = set()
        for name, metric in registry.metrics().items():
            flat = sanitize_name(name)
            exported.add(flat)
            if isinstance(metric, Histogram):
                exported.update(
                    f"{flat}{suffix}"
                    for suffix in ("_count", "_sum", "_min", "_max")
                )
        documented = set(re.findall(r"`(repro_[a-z0-9_]+)`",
                                    SERVE_DOC.read_text()))
        assert documented, "SERVE.md documents no Prometheus names"
        missing = documented - exported
        assert not missing, (
            f"docs/SERVE.md documents Prometheus names the exposition "
            f"never renders: {sorted(missing)}"
        )

    def test_serve_ledger_series_gate_lower(self):
        from repro.obs.history import series_direction

        for series in ("serve.sweep.wall_s", "serve.queue_wait_s"):
            assert series_direction(series) == "lower"
