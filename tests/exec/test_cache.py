"""Tests for the on-disk artifact cache: keys, recovery, invalidation."""

import pickle
import threading

import pytest

from repro import obs
from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.errors import NetlistError
from repro.exec import (
    CACHE_VERSION,
    cache_enabled,
    cache_root,
    clear_caches,
    load_artifact,
    source_digest,
    store_artifact,
    structural_hash,
)
from repro.exec import cache as cache_module
from repro.netlist.compile import compiled_netlist


class TestCacheBasics:
    def test_roundtrip(self, cache_dir):
        assert load_artifact("thing", "key") is None
        assert store_artifact("thing", "key", {"answer": 42})
        assert load_artifact("thing", "key") == {"answer": 42}

    def test_root_is_versioned(self, cache_dir):
        assert cache_root() == cache_dir / f"v{CACHE_VERSION}"

    def test_version_bump_orphans_entries(self, cache_dir, monkeypatch):
        store_artifact("thing", "key", "old-generation")
        monkeypatch.setattr(cache_module, "CACHE_VERSION", CACHE_VERSION + 1)
        assert load_artifact("thing", "key") is None
        store_artifact("thing", "key", "new-generation")
        assert load_artifact("thing", "key") == "new-generation"

    def test_disabled_by_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        assert not store_artifact("thing", "key", 1)
        assert load_artifact("thing", "key") is None
        assert not list(cache_dir.rglob("*.pkl"))

    def test_corrupt_entry_recovers(self, cache_dir, obs_enabled):
        store_artifact("thing", "key", "good")
        path = cache_module.artifact_path("thing", "key")
        path.write_bytes(b"not a pickle")
        assert load_artifact("thing", "key") is None
        assert not path.exists()
        assert obs.snapshot()["exec.cache_corrupt"] == 1
        # The recomputed artifact takes the slot back.
        store_artifact("thing", "key", "recomputed")
        assert load_artifact("thing", "key") == "recomputed"

    def test_concurrent_writers_leave_one_clean_entry(self, cache_dir):
        def write(value):
            store_artifact("thing", "key", value)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert load_artifact("thing", "key") in range(8)
        # Atomic replace: exactly one entry, no leftover temp files.
        entries = list((cache_root() / "thing").iterdir())
        assert len(entries) == 1 and entries[0].suffix == ".pkl"


class TestCacheKeys:
    def test_source_digest_stable(self):
        first = source_digest("repro.netlist.compile")
        assert first == source_digest("repro.netlist.compile")
        assert first != source_digest("repro.coregen.generator")

    def test_structural_hash_ignores_name(self, cache_dir):
        a = generate_core(CoreConfig(datawidth=4))
        clear_caches()
        b = generate_core(CoreConfig(datawidth=4))
        assert a is not b
        assert structural_hash(a) == structural_hash(b)
        wider = generate_core(CoreConfig(datawidth=8))
        assert structural_hash(a) != structural_hash(wider)


class TestWarmStart:
    def test_netlist_and_compile_artifacts_written(self, cache_dir, obs_enabled):
        netlist = generate_core(CoreConfig(datawidth=4))
        compiled_netlist(netlist)
        assert list((cache_root() / "netlist").glob("*.pkl"))
        assert list((cache_root() / "compiled-sim").glob("*.pkl"))
        assert obs.snapshot()["exec.cache_writes"] >= 2

    def test_warm_start_skips_elaboration_and_codegen(
        self, cache_dir, obs_enabled
    ):
        config = CoreConfig(datawidth=4)
        compiled_netlist(generate_core(config))
        clear_caches()
        obs.reset()
        compiled_netlist(generate_core(config))
        snapshot = obs.snapshot()
        assert snapshot["coregen.disk_hits"] == 1
        assert snapshot["compile.disk_hits"] == 1
        # Nothing was recomputed or rewritten: no elaboration or
        # compile spans ran, and no new artifacts were stored.
        names = {event.name for event in obs.TRACER.events()}
        assert "compile" not in names and "generate_core" not in names
        assert snapshot.get("exec.cache_writes", 0) == 0

    def test_netlist_pickles_without_compiled_state(self, cache_dir):
        netlist = generate_core(CoreConfig(datawidth=4))
        sim = compiled_netlist(netlist)
        clone = pickle.loads(pickle.dumps(netlist))
        assert not hasattr(clone, "_compiled_sim") or clone._compiled_sim is None
        assert compiled_netlist(clone).source == sim.source


class TestBrokenNetlistArtifact:
    """A ``netlist`` entry that unpickles but fails the load check, or
    holds no netlist, is dropped like an unreadable one: deleted,
    counted in ``exec.cache_corrupt``, and re-elaborated."""

    CONFIG = CoreConfig(datawidth=4)

    @staticmethod
    def key(config) -> str:
        from repro.coregen import generator

        return f"{config!r};cse=True;" + source_digest(*generator._ELABORATION_SOURCES)

    def recovers(self, good, obs_enabled) -> None:
        clear_caches()
        obs.reset()
        netlist = generate_core(self.CONFIG)
        assert structural_hash(netlist) == structural_hash(good)
        assert obs.snapshot()["exec.cache_corrupt"] == 1
        # The re-elaborated netlist took the slot back.
        assert structural_hash(load_artifact("netlist", self.key(self.CONFIG))) == (
            structural_hash(good)
        )

    def test_floating_input_is_re_elaborated(self, cache_dir, obs_enabled):
        import copy
        import dataclasses

        good = generate_core(self.CONFIG)
        broken = copy.copy(good)
        inputs = broken.cells.inputs.copy()
        inputs[0, 0] = broken.net_count  # a net nothing drives
        broken._cells = dataclasses.replace(broken.cells, inputs=inputs)
        broken._net_count += 1
        store_artifact("netlist", self.key(self.CONFIG), broken)
        with pytest.raises(NetlistError, match="floating input"):
            pickle.loads(pickle.dumps(broken))
        self.recovers(good, obs_enabled)

    def test_wrong_payload_type_is_re_elaborated(self, cache_dir, obs_enabled):
        good = generate_core(self.CONFIG)
        store_artifact("netlist", self.key(self.CONFIG), {"not": "a netlist"})
        self.recovers(good, obs_enabled)
