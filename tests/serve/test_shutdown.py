"""Graceful-shutdown regression: a real ``python -m repro serve``
subprocess must drain on SIGTERM and exit 0."""

import os
import signal
import subprocess
import sys

import pytest

from tests.serve.conftest import get_json, post_json, wait_until

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture
def serve_process(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    env["REPRO_HISTORY_DIR"] = str(tmp_path / "history")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--drain-timeout", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=_REPO,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("serving on http://"), line
        base = line[len("serving on "):]
        yield proc, base
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


class TestSigtermShutdown:
    def test_drains_and_exits_zero(self, serve_process):
        proc, base = serve_process
        status, health = get_json(f"{base}/healthz")
        assert status == 200 and health["status"] == "ok"
        assert get_json(f"{base}/readyz")[0] == 200

        status, job = post_json(
            f"{base}/jobs",
            {"kind": "campaign", "params": {"stride": 64}},
        )
        assert status == 202, job
        wait_until(
            lambda: get_json(f"{base}/jobs/{job['id']}")[1]["status"]
            in ("done", "failed"),
            timeout=60,
        )
        assert get_json(f"{base}/jobs/{job['id']}")[1]["status"] == "done"

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        stdout = proc.stdout.read()
        assert "shutdown complete" in stdout

    def test_sigterm_while_idle_exits_zero(self, serve_process):
        proc, base = serve_process
        assert get_json(f"{base}/healthz")[0] == 200
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
        assert "shutdown complete" in proc.stdout.read()
