"""Shared net-load model: unit semantics and pinned rc=None numbers.

Two guarantees under test.  First, the unit behaviour of
:mod:`repro.netlist.load`: one fanout/wire load model shared by STA
and power, with wire capacitance entering as extra gate-equivalent
fanout and ``rc=None`` collapsing to the historical arithmetic.
Second -- the contract the whole PR rests on -- the **pinned table**:
with ``rc=None``, critical-path delay and energy per cycle are
bit-exact with the pre-placement flow on every one of the paper's 24
sweep configurations in both technologies.  Any drift here is a silent
PPA change and must fail loudly.
"""

import pickle

import numpy as np
import pytest

from repro.coregen.config import CoreConfig, standard_sweep
from repro.coregen.generator import generate_core
from repro.netlist.core import SEQUENTIAL_CELLS
from repro.netlist.load import (
    DEFAULT_FANOUT_SLOPE,
    RCAnnotation,
    WireRC,
    cell_kinds,
    fanout_counts,
    fanout_derate,
    net_derate,
)
from repro.netlist.power import PAPER_ACTIVITY_FACTOR, power_report
from repro.netlist.sta import cell_delays, timing_report
from repro.netlist.stats import area_report
from repro.pdk import technology_library

# (critical_path_delay s, energy_per_cycle J) with rc=None, recorded
# before placement-derived RC existed.  These are exact float
# comparisons on purpose: rc=None must stay the wire-blind flow
# bit-for-bit, not merely "close".
PINNED_WIRE_BLIND = {
    ("p1_4_2", "EGFET"): (0.038716400000000005, 0.00017099165599999898),
    ("p1_4_4", "EGFET"): (0.038716400000000005, 0.00023191484799999876),
    ("p2_4_2", "EGFET"): (0.04701755000000001, 0.00022636759199999899),
    ("p2_4_4", "EGFET"): (0.04701755000000001, 0.00028831879999999873),
    ("p3_4_2", "EGFET"): (0.06552270000000003, 0.0003610222000000002),
    ("p3_4_4", "EGFET"): (0.07109165000000002, 0.00042297340799999993),
    ("p1_8_2", "EGFET"): (0.04990930000000002, 0.00019639734399999864),
    ("p1_8_4", "EGFET"): (0.04990930000000002, 0.0002534640239999983),
    ("p2_8_2", "EGFET"): (0.059440250000000014, 0.0002517732799999986),
    ("p2_8_4", "EGFET"): (0.059440250000000014, 0.0003098679759999983),
    ("p3_8_2", "EGFET"): (0.06600750000000002, 0.00040715435199999985),
    ("p3_8_4", "EGFET"): (0.07157645000000003, 0.00046524904799999953),
    ("p1_16_2", "EGFET"): (0.07298260000000002, 0.00025442199200000266),
    ("p1_16_4", "EGFET"): (0.07298260000000002, 0.000311488672000003),
    ("p2_16_2", "EGFET"): (0.08497315000000004, 0.0003097979280000027),
    ("p2_16_4", "EGFET"): (0.08497315000000004, 0.0003678926240000031),
    ("p3_16_2", "EGFET"): (0.08497315000000004, 0.0005066319280000039),
    ("p3_16_4", "EGFET"): (0.08497315000000004, 0.0005647266240000042),
    ("p1_32_2", "EGFET"): (0.11562569999999997, 0.0003709710400000046),
    ("p1_32_4", "EGFET"): (0.11562569999999997, 0.0004280377200000039),
    ("p2_32_2", "EGFET"): (0.1325354499999999, 0.00042634697600000453),
    ("p2_32_4", "EGFET"): (0.1325354499999999, 0.0004844416720000038),
    ("p3_32_2", "EGFET"): (0.1325354499999999, 0.0007060868320000039),
    ("p3_32_4", "EGFET"): (0.1325354499999999, 0.0007641815280000033),
    ("p1_4_2", "CNT"): (9.088230000000002e-05, 5.442380240000019e-06),
    ("p1_4_4", "CNT"): (9.088230000000002e-05, 7.3242074400000474e-06),
    ("p2_4_2", "CNT"): (9.088230000000002e-05, 6.4281500800000185e-06),
    ("p2_4_4", "CNT"): (9.088230000000002e-05, 8.34227328000005e-06),
    ("p3_4_2", "CNT"): (0.00013857620000000005, 1.024172424000009e-05),
    ("p3_4_4", "CNT"): (0.00014582440000000002, 1.2155847440000107e-05),
    ("p1_8_2", "CNT"): (0.00012484770000000003, 7.043814800000075e-06),
    ("p1_8_4", "CNT"): (0.00012484770000000003, 9.007869200000135e-06),
    ("p2_8_2", "CNT"): (0.00012507390000000002, 8.029584640000075e-06),
    ("p2_8_4", "CNT"): (0.00012507390000000002, 1.0025935040000136e-05),
    ("p3_8_2", "CNT"): (0.00013859940000000005, 1.2264502800000106e-05),
    ("p3_8_4", "CNT"): (0.00014584760000000002, 1.4260853200000162e-05),
    ("p1_16_2", "CNT"): (0.0002007103000000001, 1.007466152000015e-05),
    ("p1_16_4", "CNT"): (0.0002007103000000001, 1.2038715920000175e-05),
    ("p2_16_2", "CNT"): (0.00020261250000000008, 1.1060431360000146e-05),
    ("p2_16_4", "CNT"): (0.00020261250000000008, 1.3056781760000173e-05),
    ("p3_16_2", "CNT"): (0.00020261250000000008, 1.6138037520000162e-05),
    ("p3_16_4", "CNT"): (0.00020261250000000008, 1.8134387920000192e-05),
    ("p1_32_2", "CNT"): (0.00033640569999999993, 1.6143922960000295e-05),
    ("p1_32_4", "CNT"): (0.00033640569999999993, 1.8107977360000313e-05),
    ("p2_32_2", "CNT"): (0.00034165989999999994, 1.712969280000029e-05),
    ("p2_32_4", "CNT"): (0.00034165989999999994, 1.9126043200000312e-05),
    ("p3_32_2", "CNT"): (0.00034165989999999994, 2.3892674960000262e-05),
    ("p3_32_4", "CNT"): (0.00034165989999999994, 2.588902536000029e-05),
}


class TestLoadModel:
    def test_fanout_derate_baseline(self):
        assert fanout_derate(1, DEFAULT_FANOUT_SLOPE) == 1.0
        assert fanout_derate(0, DEFAULT_FANOUT_SLOPE) == 1.0
        assert fanout_derate(3, 0.05) == pytest.approx(1.1)

    def test_net_derate_without_wire_matches_fanout_derate(self):
        for fanout in range(0, 6):
            assert net_derate(fanout, 0.0, 5e-9) == fanout_derate(
                fanout, DEFAULT_FANOUT_SLOPE
            )

    def test_net_derate_counts_wire_as_gate_equivalents(self):
        # One extra input-capacitance worth of wire == one more sink.
        cin = 5e-9
        assert net_derate(2, cin, cin) == pytest.approx(net_derate(3, 0.0, cin))

    def test_wire_rc_delay_and_energy(self):
        wire = WireRC(resistance=1000.0, capacitance=1e-7, length=0.1)
        assert wire.delay == pytest.approx(0.5 * 1000.0 * 1e-7)
        assert wire.switch_energy(1.0) == pytest.approx(0.5 * 1e-7)

    def test_annotation_lookup_and_totals(self):
        rc = RCAnnotation(
            source="test",
            nets={
                7: WireRC(10.0, 2e-9, 0.01),
                9: WireRC(20.0, 4e-9, 0.02),
            },
        )
        assert rc.wire_delay(7) == pytest.approx(0.5 * 10.0 * 2e-9)
        assert rc.capacitance(9) == 4e-9
        # Unannotated nets are free (local ties).
        assert rc.wire_delay(1234) == 0.0
        assert rc.capacitance(1234) == 0.0
        assert rc.switch_energy(1234, 1.0) == 0.0
        assert rc.total_wirelength == pytest.approx(0.03)
        assert rc.total_capacitance == pytest.approx(6e-9)

    def test_sta_and_power_share_fanout_counts(self):
        from repro.netlist import sta

        assert sta.fanout_counts is fanout_counts


@pytest.mark.parametrize("technology", ("EGFET", "CNT"))
def test_wire_blind_ppa_is_pinned_bit_exact(technology):
    """rc=None reproduces the pre-placement sweep numbers exactly."""
    library = technology_library(technology)
    for config in standard_sweep():
        netlist = generate_core(config)
        timing = timing_report(netlist, library, rc=None)
        power = power_report(netlist, library, rc=None)
        expected = PINNED_WIRE_BLIND[(config.name, technology)]
        assert (timing.critical_path_delay, power.energy_per_cycle) == expected


@pytest.mark.parametrize("technology", ("EGFET", "CNT"))
def test_wire_blind_analyses_equal_the_per_instance_formulas(technology):
    """One lookup per cell kind; every value still equals, with ``==``,
    the formula applied instance by instance and summed in order."""
    library = technology_library(technology)
    for config in standard_sweep():
        netlist = generate_core(config)
        fanouts = fanout_counts(netlist)
        delays = []
        total = combinational = sequential = 0.0
        energy = {False: 0.0, True: 0.0}
        transistors = resistors = flops = 0
        for instance in netlist.instances:
            cell = library.cell(instance.cell)
            derate = fanout_derate(int(fanouts[instance.output]))
            delays.append((cell.rise_delay * derate, cell.fall_delay * derate))
            stateful = instance.cell in SEQUENTIAL_CELLS
            total += cell.area
            if stateful:
                sequential += cell.area
                flops += 1
            else:
                combinational += cell.area
            energy[stateful] += cell.energy * PAPER_ACTIVITY_FACTOR
            transistors += cell.transistors
            resistors += cell.resistors
        assert np.array_equal(cell_delays(netlist, library), np.array(delays))
        area = area_report(netlist, library)
        assert (area.total, area.combinational, area.sequential) == (
            total, combinational, sequential
        )
        assert (area.dff_count, area.transistors, area.resistors) == (
            flops, transistors, resistors
        )
        power = power_report(netlist, library)
        assert (power.combinational_energy, power.sequential_energy) == (
            energy[False], energy[True]
        )
        assert power.energy_per_cycle == energy[False] + energy[True]


def test_cell_kinds_memoized_and_dropped_on_pickle():
    netlist = generate_core(CoreConfig(datawidth=8))
    kinds = cell_kinds(netlist)
    assert cell_kinds(netlist) is kinds
    assert sum(kinds.counts) == len(netlist.instances)
    assert [kinds.names[k] for k in kinds.kind] == [
        i.cell for i in netlist.instances
    ]
    clone = pickle.loads(pickle.dumps(netlist))
    assert not hasattr(clone, "_cell_kinds")
