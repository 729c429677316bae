"""Pluggable progress sink: default lines byte-identical, sinks."""

import io

from repro import obs
from repro.obs.progress import ProgressEvent, format_progress_line, progress


def _legacy_line(label, done, total, elapsed, final=False, heartbeat=False):
    """The historical _emit format, reproduced verbatim as the oracle."""
    rate = done / elapsed if elapsed > 0 else 0.0
    parts = [f"[obs] {label}: {done}"]
    if total:
        parts[0] += f"/{total} ({100 * done // total}%)"
    parts.append(f"{rate:.1f}/s")
    if final:
        parts.append(f"in {elapsed:.2f}s")
    else:
        if total and rate > 0:
            parts.append(f"eta {(total - done) / rate:.1f}s")
        if heartbeat:
            parts.append(f"elapsed {elapsed:.0f}s")
    return " ".join(parts)


class TestFormatProgressLine:
    def test_byte_identical_to_legacy_format(self):
        cases = [
            dict(label="sweep", done=8, total=24, elapsed=3.8),
            dict(label="sweep", done=24, total=24, elapsed=11.4, final=True),
            dict(label="scan", done=3, total=None, elapsed=95.0, heartbeat=True),
            dict(label="scan", done=7, total=100, elapsed=70.0, heartbeat=True),
            dict(label="x", done=1, total=None, elapsed=0.0),
        ]
        for case in cases:
            final = case.get("final", False)
            heartbeat = case.get("heartbeat", False)
            rate = case["done"] / case["elapsed"] if case["elapsed"] > 0 else 0.0
            event = ProgressEvent(
                label=case["label"],
                done=case["done"],
                total=case["total"],
                elapsed_s=case["elapsed"],
                rate=rate,
                final=final,
                heartbeat=heartbeat,
            )
            assert format_progress_line(event) == _legacy_line(
                case["label"], case["done"], case["total"], case["elapsed"],
                final=final, heartbeat=heartbeat,
            )

    def test_percent_and_eta_properties(self):
        event = ProgressEvent(
            label="l", done=25, total=100, elapsed_s=5.0, rate=5.0
        )
        assert event.percent == 25
        assert event.eta_s == 15.0
        untotaled = ProgressEvent(
            label="l", done=3, total=None, elapsed_s=1.0, rate=3.0
        )
        assert untotaled.percent is None
        assert untotaled.eta_s is None


class TestProgressSink:
    def test_default_sink_writes_stream(self, obs_enabled):
        out = io.StringIO()
        list(progress(range(20), "loop", every=10, stream=out, heartbeat=0))
        lines = out.getvalue().splitlines()
        assert lines[0] == "[obs] loop: 10/20 (50%)" or lines[0].startswith(
            "[obs] loop: 10/20 (50%)"
        )
        assert lines[-1].startswith("[obs] loop: 20/20 (100%)")
        assert lines[-1].split(" in ")[0]  # final line format

    def test_custom_sink_replaces_stream_writes(self, obs_enabled):
        events = []
        obs.set_progress_sink(events.append)
        try:
            out = io.StringIO()
            list(progress(range(20), "loop", every=10, stream=out, heartbeat=0))
            assert out.getvalue() == ""  # nothing printed
        finally:
            obs.set_progress_sink(None)
        assert [e.done for e in events] == [10, 20]
        assert events[-1].final
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert obs.progress_sink() is None

    def test_disabled_path_emits_nothing(self, obs_disabled):
        events = []
        obs.set_progress_sink(events.append)
        try:
            out = io.StringIO()
            assert list(progress(range(5), "loop", stream=out)) == list(range(5))
            assert out.getvalue() == ""
            assert events == []
        finally:
            obs.set_progress_sink(None)
