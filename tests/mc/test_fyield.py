"""Defect sampling and lane-packed functional yield vs scalar refs."""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.fault_test import _run, golden_signature, lane_signatures
from repro.coregen.generator import generate_core
from repro.errors import PDKError
from repro.mc.fyield import (
    WEDGED,
    defect_probabilities,
    sample_defects,
    safe_signatures,
    unit_defects,
)
from repro.netlist.faults import StuckAtFault
from repro.netlist.lanes import LanePlan
from repro.pdk import technology_library
from repro.programs import build_benchmark
from repro.sim.machine import Machine

CONFIG = CoreConfig(datawidth=4)
DEVICE_YIELD = 0.999  # low on purpose: plenty of multi-defect units


@pytest.fixture(scope="module")
def core():
    netlist = generate_core(CONFIG)
    library = technology_library("EGFET")
    program = build_benchmark("mult", 8, 4)
    machine = Machine(program, num_bars=CONFIG.num_bars)
    machine.run()
    cycles = machine.stats.instructions
    return netlist, library, program, cycles


def test_defect_probabilities(core):
    netlist, library, _, _ = core
    p = defect_probabilities(netlist, library, DEVICE_YIELD)
    assert p.shape == (len(netlist.instances),)
    assert (p > 0).all() and (p < 1).all()
    # More devices in a cell, more likely to fail.
    sizes = [
        library.cell(i.cell).transistors + library.cell(i.cell).resistors
        for i in netlist.instances
    ]
    big = sizes.index(max(sizes))
    small = sizes.index(min(sizes))
    assert p[big] > p[small]
    with pytest.raises(PDKError):
        defect_probabilities(netlist, library, 0.0)


def test_scalar_reference_matches_vectorized(core):
    netlist, library, _, _ = core
    defects = sample_defects(netlist, library, DEVICE_YIELD, 0, 64, seed=9)
    for unit in range(64):
        assert unit_defects(netlist, library, DEVICE_YIELD, unit, 9) == (
            defects.get(unit, ())
        )


def test_sampling_is_shard_invariant(core):
    netlist, library, _, _ = core
    whole = sample_defects(netlist, library, DEVICE_YIELD, 0, 60, seed=4)
    parts = {}
    for lo, hi in ((0, 17), (17, 40), (40, 60)):
        parts.update(
            sample_defects(netlist, library, DEVICE_YIELD, lo, hi, seed=4)
        )
    assert parts == whole


def test_blocked_sampling_matches_one_unit_calls(core):
    """2048 units cross the sampler's row blocks; one unit never does."""
    netlist, library, _, _ = core
    fleet = sample_defects(netlist, library, DEVICE_YIELD, 0, 2048, seed=6)
    assert fleet
    singles = {}
    for unit in range(2048):
        singles.update(
            sample_defects(netlist, library, DEVICE_YIELD, unit, unit + 1, seed=6)
        )
    assert singles == fleet


def test_single_defect_units_match_faulty_simulator(core):
    """Lane-packed == one FaultySimulator run per unit (property test)."""
    netlist, library, program, cycles = core
    defects = sample_defects(netlist, library, DEVICE_YIELD, 0, 120, seed=2)
    singles = {u: f for u, f in defects.items() if len(f) == 1}
    assert singles, "expected some single-defect units at this yield"
    units = sorted(singles)
    packed = lane_signatures(
        program, CONFIG, cycles, [singles[u] for u in units]
    )
    for unit, signature in zip(units, packed):
        scalar = _run(
            program, CONFIG, cycles, fault=singles[unit][0], backend="compiled"
        )
        assert signature == scalar


def test_multi_defect_lanes_match_single_lane_runs(core):
    """Packing many units per pass never changes any unit's outcome."""
    netlist, library, program, cycles = core
    defects = sample_defects(netlist, library, 0.995, 0, 40, seed=11)
    multi = [f for f in defects.values() if len(f) > 1]
    assert multi, "expected multi-defect units at this yield"
    fault_sets = sorted(defects.values(), key=lambda fs: fs[0].instance_index)
    packed = lane_signatures(program, CONFIG, cycles, fault_sets)
    for fault_set, signature in zip(fault_sets, packed):
        alone = lane_signatures(program, CONFIG, cycles, [fault_set])
        assert alone == [signature]


def test_healthy_lane_matches_golden(core):
    _, _, program, cycles = core
    golden = golden_signature(program, CONFIG, cycles)
    assert lane_signatures(program, CONFIG, cycles, [None]) == [golden]


def test_lane_plan_flattens_multi_fault_entries(core):
    netlist, _, _, _ = core
    f0 = StuckAtFault(instance_index=0, stuck_value=0)
    f1 = StuckAtFault(instance_index=1, stuck_value=1)
    plan = LanePlan.for_faults([None, (f0, f1), f1])
    assert plan.has_forces
    forced = plan.forced_bits(netlist)
    assert forced[netlist.instances[0].output] == [(1, 0)]
    assert forced[netlist.instances[1].output] == [(1, 1), (2, 1)]
    assert not LanePlan.for_faults([None, ()]).has_forces


def test_safe_signatures_isolates_wedged_lanes(core, monkeypatch):
    _, _, program, cycles = core
    poison = object()
    batches = []

    def runner(prog, config, cyc, fault_sets, context=None):
        batches.append(len(fault_sets))
        if poison in fault_sets:
            raise RuntimeError("wedged batch")
        return lane_signatures(prog, config, cyc, fault_sets, context)

    monkeypatch.setattr("repro.coregen.fault_test.lane_signatures", runner)
    golden = golden_signature(program, CONFIG, cycles)
    out = safe_signatures(program, CONFIG, cycles, [None, poison, None])
    assert out == [golden, WEDGED, golden]
    assert batches == [3, 1, 2, 1, 1]
