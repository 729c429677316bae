"""Import ``perfbench`` and ``repro`` from this checkout, isolated like a run."""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

# Read by repro.obs at import time: the benchmark runs with tracing off.
os.environ.pop("REPRO_TRACE", None)


@pytest.fixture(autouse=True)
def isolated_repro(tmp_path, monkeypatch):
    """A private artifact cache, no history ledger, one worker."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_HISTORY", "0")
    monkeypatch.setenv("REPRO_JOBS", "1")
