"""Frozen netlists: cell arrays, the pickle form, the load check, and
the builder's refusal to change a netlist that was analysed."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.errors import NetlistError, TimingError
from repro.exec import clear_caches, structural_hash
from repro.netlist.core import CELL_NAMES, CONST1, Netlist
from repro.netlist.load import cell_kinds
from repro.netlist.nsim import numpy_netlist
from repro.netlist.sta import arrival_plan, timing_report
from repro.pdk import egfet_library


def same(a, b) -> bool:
    """Deep equality over dataclasses, tuples and numpy arrays (dtype too)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def small_netlist(name: str = "small") -> Netlist:
    """Two inputs, a flop, an inverter chain and one spare unused net."""
    n = Netlist(name)
    a = n.input_bus("a", 1)[0]
    b = n.input_bus("b", 1)[0]
    q = n.dff_r(n.nand(a, b), "q")
    n.output_bus("y", [n.xor_(n.not_(q), a)])
    n.net("spare")
    return n


def load(state: dict) -> Netlist:
    """Run the unpickling path on a (possibly corrupted) state."""
    netlist = Netlist.__new__(Netlist)
    netlist.__setstate__(state)
    return netlist


class TestFreeze:
    def test_generated_cores_are_frozen(self):
        netlist = generate_core(CoreConfig(datawidth=8))
        assert netlist.frozen
        cells = netlist.cells
        assert len(cells.kind) == len(netlist.instances)
        assert (cells.kind.dtype, cells.inputs.dtype, cells.output.dtype) == (
            np.uint8, np.int32, np.int32,
        )
        assert [CELL_NAMES[k] for k in cells.kind] == [i.cell for i in netlist.instances]

    def test_arrays_match_the_instance_list(self):
        n = small_netlist()
        built = list(n.instances)
        cells = n.freeze()
        assert n.freeze() is cells  # idempotent
        for k, instance in enumerate(built):
            pins = [int(net) for net in cells.inputs[k] if net >= 0]
            assert tuple(pins) == instance.inputs
            assert cells.output[k] == instance.output
            assert cells.driver[instance.output] == k
            assert n.driver_of(instance.output) == instance
        assert list(n.instances) == built
        assert cells.level[cells.sequential].tolist() == [-1]

    def test_first_analysis_freezes_a_hand_built_netlist(self):
        n = small_netlist()
        assert not n.frozen
        timing_report(n, egfet_library())
        assert n.frozen

    def test_invalid_netlist_stays_unfrozen(self):
        n = Netlist("bad")
        n.add_instance("INVX1", (n.net("floating"),))
        with pytest.raises(NetlistError, match="floating"):
            n.freeze()
        assert not n.frozen
        n.add_instance("INVX1", (n.input_bus("a", 1)[0],))

    def test_combinational_loop_refused_at_freeze(self):
        n = Netlist("loop")
        a = n.input_bus("a", 1)[0]
        loop = n.net("loop")
        n.add_instance("INVX1", (n.add_instance("AND2X1", (a, loop)),), loop)
        with pytest.raises(TimingError, match="loop"):
            n.freeze()

    def test_len_of_instances_builds_no_instance(self):
        clone = pickle.loads(pickle.dumps(generate_core(CoreConfig(datawidth=4))))
        assert len(clone.instances) == len(clone.cells.kind)
        assert clone._instances is None
        assert clone.instances[0].cell == CELL_NAMES[clone.cells.kind[0]]
        assert clone._instances is not None


class TestPickle:
    def test_round_trip_keeps_arrays_ports_names_hash_and_plans(self):
        netlist = generate_core(CoreConfig(pipeline_stages=3, datawidth=8, num_bars=4))
        plans = (numpy_netlist(netlist), arrival_plan(netlist), cell_kinds(netlist))
        clone = pickle.loads(pickle.dumps(netlist))
        assert same(clone.cells, netlist.cells)
        assert (clone.inputs, clone.outputs) == (netlist.inputs, netlist.outputs)
        assert (clone.reset_n, clone.net_count) == (netlist.reset_n, netlist.net_count)
        assert clone.named_nets() == netlist.named_nets()
        assert structural_hash(clone) == structural_hash(netlist)
        assert same((numpy_netlist(clone), arrival_plan(clone), cell_kinds(clone)), plans)
        assert list(clone.instances) == list(netlist.instances)

    def test_state_holds_arrays_not_instances(self):
        state = generate_core(CoreConfig(datawidth=8)).__getstate__()
        assert set(state) == {
            "name", "cse", "inputs", "outputs", "reset_n", "nets", "names", "cells",
        }
        assert all(isinstance(array, np.ndarray) for array in state["cells"])


class TestLoadCheck:
    @pytest.fixture
    def state(self):
        return small_netlist().__getstate__()

    @staticmethod
    def with_cells(state, **arrays):
        fields = ("kind", "inputs", "output", "order", "level")
        cells = dict(zip(fields, (array.copy() for array in state["cells"])))
        for name, edit in arrays.items():
            edit(cells[name])
        return {**state, "cells": tuple(cells[name] for name in fields)}

    def test_good_state_loads(self, state):
        assert load(state).frozen

    def test_unknown_cell_code(self, state):
        def bad(kind):
            kind[0] = len(CELL_NAMES)

        with pytest.raises(NetlistError, match="out of range"):
            load(self.with_cells(state, kind=bad))

    def test_wrong_arity(self, state):
        inverter = CELL_NAMES.index("INVX1")

        def bad(inputs):
            inputs[state["cells"][0] == inverter, 1] = CONST1

        with pytest.raises(NetlistError, match="INVX1 expects 1 inputs, got 2"):
            load(self.with_cells(state, inputs=bad))

    def test_two_drivers(self, state):
        def bad(output):
            output[1] = output[0]

        with pytest.raises(NetlistError, match="two drivers"):
            load(self.with_cells(state, output=bad))

    def test_floating_input(self, state):
        spare = state["nets"] - 1

        def bad(inputs):
            inputs[0, 0] = spare

        with pytest.raises(NetlistError, match="floating input net spare"):
            load(self.with_cells(state, inputs=bad))

    def test_floating_output_bit(self, state):
        bad = {**state, "outputs": {**state["outputs"]}}
        bad["outputs"]["y"] = dataclasses.replace(bad["outputs"]["y"], nets=[state["nets"] - 1])
        with pytest.raises(NetlistError, match="output y bit is floating"):
            load(bad)

    def test_level_off_by_one(self, state):
        def bad(level):
            level[level >= 0] += 1

        with pytest.raises(NetlistError, match="levels or order"):
            load(self.with_cells(state, level=bad))

    def test_order_against_levels(self, state):
        def bad(order):
            order[:] = order[::-1]

        with pytest.raises(NetlistError, match="levels or order"):
            load(self.with_cells(state, order=bad))


class TestFrozenBuilder:
    @staticmethod
    def and_netlist():
        n = Netlist("grow")
        a = n.input_bus("a", 1)[0]
        b = n.input_bus("b", 1)[0]
        n.output_bus("y", [n.and_(a, b)])
        return n, a, b

    def test_fresh_build_of_the_longer_path(self):
        n = Netlist("fresh")
        a = n.input_bus("a", 1)[0]
        b = n.input_bus("b", 1)[0]
        n.output_bus("y", [n.nand(n.and_(a, b), a)])
        assert timing_report(n, egfet_library()).critical_path == ("AND2X1", "NAND2X1")

    def test_analysed_netlist_refuses_every_builder_method(self):
        n, a, b = self.and_netlist()
        first = timing_report(n, egfet_library())
        assert first.critical_path == ("AND2X1",)
        calls = {
            "net": lambda: n.net(),
            "input_bus": lambda: n.input_bus("c", 1),
            "output_bus": lambda: n.output_bus("z", [a]),
            "reset_input": lambda: n.reset_input(),
            "add_instance": lambda: n.add_instance("INVX1", (a,)),
            "not_": lambda: n.not_(a),
            "and_": lambda: n.and_(a, b),
            "or_": lambda: n.or_(a, b),
            "nand": lambda: n.nand(n.outputs["y"][0], a),
            "nor": lambda: n.nor(a, b),
            "xor_": lambda: n.xor_(a, b),
            "xnor": lambda: n.xnor(a, b),
            "mux": lambda: n.mux(a, b, CONST1),
            "and_many": lambda: n.and_many([a, b]),
            "or_many": lambda: n.or_many([a, b]),
            "xor_many": lambda: n.xor_many([a, b]),
            "dff": lambda: n.dff(a),
            "dff_r": lambda: n.dff_r(a),
            "register": lambda: n.register([a]),
        }
        for method, call in calls.items():
            with pytest.raises(NetlistError, match="'grow' is frozen"):
                call()
        assert timing_report(n, egfet_library()) == first


def test_paper_dse_pass_on_disk_cores_builds_no_instance(tmp_path, monkeypatch):
    """After ``clear_caches()``, a design point and a Figure 8 cell on
    cores loaded from the disk cache read only the cell arrays."""
    from repro.coregen import generator
    from repro.dse.sweep import evaluate_design
    from repro.eval.figures import fig8_benchmark

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_caches()
    try:
        point = evaluate_design(CoreConfig(datawidth=8), "CNT")
        cell = fig8_benchmark("mult", 8, "EGFET")
        clear_caches()

        def refuse(*args):
            raise AssertionError("built Instance objects or elaborated a core")

        monkeypatch.setattr(Netlist, "_materialized", refuse)
        monkeypatch.setattr(generator, "_elaborate", refuse)
        assert evaluate_design(CoreConfig(datawidth=8), "CNT") == point
        assert fig8_benchmark("mult", 8, "EGFET") == cell
    finally:
        clear_caches()
