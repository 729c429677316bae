"""Content-addressed on-disk artifact cache for compiled pipeline stages.

Every fresh process used to pay netlist elaboration and simulation
codegen again, even for a configuration it had built a thousand times
before -- the memos in :mod:`repro.coregen.generator` and
:mod:`repro.netlist.compile` live only in memory.  This module gives
those stages a persistent home: artifacts are stored content-addressed
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), so parallel
workers and subsequent runs skip ``generate_core`` / ``compile``
entirely.

Layout and invariants:

* **Content addressing** -- an artifact's filename is the SHA-256 of
  its full key.  Keys always include :data:`CACHE_VERSION` plus a
  digest of the producing modules' source (:func:`source_digest`), so
  editing the generator or the compiler invalidates its artifacts
  automatically -- no stale-cache wrong answers, no manual flushing.
* **Versioned root** -- artifacts live under ``<root>/v<N>/<kind>/``;
  bumping :data:`CACHE_VERSION` orphans every old entry at once.
* **Atomic writes** -- payloads are written to a temporary file in the
  destination directory and ``os.replace``d into place, so concurrent
  writers race benignly (last complete write wins, readers never see a
  torn file).
* **Corruption recovery** -- an unreadable or unpicklable entry, or one
  that holds the wrong type, is deleted and reported as a miss; the
  caller simply recomputes.
* **Best effort** -- any filesystem error degrades to cache-off
  behaviour rather than failing the computation.

Telemetry: ``exec.cache_hits`` / ``exec.cache_misses`` /
``exec.cache_writes`` / ``exec.cache_corrupt`` count disk-cache
traffic and surface in ``obs.snapshot()`` and ``RUN_REPORT.json``.
Disable the cache entirely with ``REPRO_CACHE=0``.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path

from repro.obs.metrics import counter as _obs_counter

#: Bump to orphan every existing artifact (layout/payload changes).
CACHE_VERSION = 1

_HITS = _obs_counter("exec.cache_hits")
_MISSES = _obs_counter("exec.cache_misses")
_WRITES = _obs_counter("exec.cache_writes")
_CORRUPT = _obs_counter("exec.cache_corrupt")
_ERRORS = _obs_counter("exec.cache_errors")


def cache_enabled() -> bool:
    """Whether the on-disk artifact cache is active (``REPRO_CACHE``).

    Enabled by default; set ``REPRO_CACHE=0`` (or empty) to force every
    stage to recompute.  Read per call so tests can flip it.
    """
    return os.environ.get("REPRO_CACHE", "1") not in ("", "0")


def cache_root() -> Path:
    """Versioned cache directory (not created until first write).

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro`` or
    ``~/.cache/repro``.  The :data:`CACHE_VERSION` subdirectory keeps
    incompatible generations side by side.
    """
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        root = Path(base)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        root = (Path(xdg) if xdg else Path.home() / ".cache") / "repro"
    return root / f"v{CACHE_VERSION}"


@lru_cache(maxsize=None)
def source_digest(*module_names: str) -> str:
    """Digest of the named modules' source files (cache-key component).

    Keying artifacts on the *code that produced them* makes
    invalidation automatic: editing ``repro.coregen.generator``
    changes the digest and orphans every netlist it ever elaborated.
    Modules whose source cannot be read contribute their version-less
    name only (frozen/zipapp deployments fall back to
    :data:`CACHE_VERSION` bumps).
    """
    digest = hashlib.sha256()
    for name in module_names:
        digest.update(name.encode())
        module = importlib.import_module(name)
        source = getattr(module, "__file__", None)
        if source:
            try:
                digest.update(Path(source).read_bytes())
            except OSError:
                pass
    return digest.hexdigest()[:20]


def structural_hash(netlist) -> str:
    """Content hash of a netlist's structure (ports + connectivity).

    Two netlists with the same hash compile to identical simulation
    code: the hash covers net count, the reset net, every port bus,
    and the frozen cell arrays -- every cell's kind, input nets and
    output net -- but not the design *name*, so structurally identical
    designs share artifacts.  Memoized on the netlist object (a frozen
    netlist is immutable).
    """
    cached = getattr(netlist, "_structural_hash", None)
    if cached is not None:
        return cached
    from repro.netlist.core import CELL_NAMES  # repro.netlist imports this module

    cells = netlist.cells
    digest = hashlib.sha256()
    digest.update(f"{netlist.net_count};{netlist.reset_n};".encode())
    for name in sorted(netlist.inputs):
        digest.update(f"i:{name}:{tuple(netlist.inputs[name].nets)};".encode())
    for name in sorted(netlist.outputs):
        digest.update(f"o:{name}:{tuple(netlist.outputs[name].nets)};".encode())
    digest.update(f"{';'.join(CELL_NAMES)};".encode())
    for array in (cells.kind, cells.inputs, cells.output):
        digest.update(array.tobytes())
    value = digest.hexdigest()
    netlist._structural_hash = value
    return value


def artifact_path(kind: str, key: str) -> Path:
    """Content address for one artifact: ``<root>/<kind>/<sha256>.pkl``."""
    digest = hashlib.sha256(key.encode()).hexdigest()
    return cache_root() / kind / f"{digest}.pkl"


def load_artifact(kind: str, key: str, expect: type = object):
    """Fetch one artifact, or ``None`` on miss/corruption/disabled.

    A corrupt entry -- one whose unpickling raises (including a load
    check an object runs in ``__setstate__``) or that is not an
    ``expect`` instance -- is deleted and counted in
    ``exec.cache_corrupt``, so the follow-up :func:`store_artifact`
    replaces it with a good one.
    """
    if not cache_enabled():
        return None
    path = artifact_path(kind, key)
    try:
        payload = path.read_bytes()
    except OSError:
        _MISSES.inc()
        return None
    try:
        artifact = pickle.loads(payload)
        if not isinstance(artifact, expect):
            raise TypeError(f"{kind} artifact holds a {type(artifact).__name__}")
    except Exception:
        _CORRUPT.inc()
        _MISSES.inc()
        try:
            path.unlink()
        except OSError:
            pass
        return None
    _HITS.inc()
    return artifact


def store_artifact(kind: str, key: str, artifact) -> bool:
    """Persist one artifact atomically; False when disabled or failed.

    The payload is pickled to a temporary file in the destination
    directory and renamed into place, so a concurrent reader sees
    either the previous complete entry or this one -- never a torn
    write -- and concurrent writers of the same key are idempotent.
    """
    if not cache_enabled():
        return False
    path = artifact_path(kind, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=path.name + ".", delete=False
        )
        try:
            with handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
    except (OSError, pickle.PicklingError):
        _ERRORS.inc()
        return False
    _WRITES.inc()
    return True
