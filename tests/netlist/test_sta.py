"""Tests for static timing analysis."""

from itertools import product

import pytest

from repro.errors import TimingError
from repro.netlist.components import ripple_adder
from repro.netlist.core import CELL_ARITY, CELL_FUNCTIONS, Netlist
from repro.netlist.sta import INVERTING_CELLS, NON_MONOTONE_CELLS, timing_report
from repro.pdk import cnt_tft_library, egfet_library


def inverter_chain(length):
    n = Netlist("chain")
    a = n.input_bus("a", 1)[0]
    net = a
    for _ in range(length):
        net = n.add_instance("INVX1", (net,))
    n.output_bus("y", [net])
    return n


class TestCriticalPath:
    def test_chain_delay_alternates_rise_and_fall(self):
        """Polarity-aware STA: consecutive inverters alternate the slow
        rising and fast falling transitions, so a 5-deep chain is far
        cheaper than five worst-case delays."""
        library = egfet_library()
        report = timing_report(inverter_chain(5), library, fanout_slope=0.0)
        inv = library.cell("INVX1")
        # Worst endpoint: rise,fall,rise,fall,rise = 3 rises + 2 falls.
        expected = 3 * inv.rise_delay + 2 * inv.fall_delay
        assert report.critical_path_delay == pytest.approx(expected)
        assert report.levels == 5
        assert set(report.critical_path) == {"INVX1"}

    def test_pessimistic_mode_sums_worst_delays(self):
        library = egfet_library()
        report = timing_report(
            inverter_chain(5), library, fanout_slope=0.0, pessimistic=True
        )
        inv = library.cell("INVX1")
        assert report.critical_path_delay == pytest.approx(5 * inv.worst_delay)

    def test_fmax_is_reciprocal(self):
        library = egfet_library()
        report = timing_report(inverter_chain(3), library, fanout_slope=0.0)
        assert report.fmax == pytest.approx(1.0 / report.critical_path_delay)

    def test_longer_adder_is_slower(self):
        library = egfet_library()
        delays = []
        for width in (4, 8, 16):
            n = Netlist("adder")
            a = n.input_bus("a", width)
            b = n.input_bus("b", width)
            total, cout = ripple_adder(n, a.nets, b.nets)
            n.output_bus("sum", total.nets)
            n.output_bus("cout", [cout])
            delays.append(timing_report(n, library).critical_path_delay)
        assert delays[0] < delays[1] < delays[2]

    def test_cnt_is_orders_of_magnitude_faster(self):
        n = inverter_chain(10)
        egfet = timing_report(n, egfet_library()).fmax
        cnt = timing_report(n, cnt_tft_library()).fmax
        assert cnt > 50 * egfet


class TestSequentialPaths:
    def test_register_to_register_path(self):
        library = egfet_library()
        n = Netlist("r2r")
        d = n.input_bus("d", 1)[0]
        q1 = n.dff_r(d)
        inverted = n.not_(q1)
        n.dff_r(inverted)
        report = timing_report(n, library, fanout_slope=0.0)
        dff = library.cell("DFFNRX1")
        inv = library.cell("INVX1")
        # Worst endpoint arrival: the inverter's rise follows the
        # flop's falling Q edge (polarity-aware propagation).
        expected = max(
            dff.fall_delay + inv.rise_delay, dff.rise_delay + inv.fall_delay
        )
        assert report.critical_path_delay == pytest.approx(expected)
        assert report.critical_path[0] == "DFFNRX1"

    def test_pipeline_register_adds_clk_to_q_overhead(self):
        """Splitting a chain in two does not double fmax: the DFF's own
        delay is paid once per stage -- the effect behind the paper's
        single-stage-pipeline conclusion."""
        library = egfet_library()
        flat = timing_report(inverter_chain(4), library, fanout_slope=0.0)

        n = Netlist("piped")
        a = n.input_bus("a", 1)[0]
        net = a
        for _ in range(2):
            net = n.add_instance("INVX1", (net,))
        net = n.dff_r(net)
        for _ in range(2):
            net = n.add_instance("INVX1", (net,))
        n.output_bus("y", [net])
        piped = timing_report(n, library, fanout_slope=0.0)
        assert piped.fmax < 2 * flat.fmax


class TestRobustness:
    def test_combinational_loop_detected(self):
        n = Netlist("loop")
        a = n.input_bus("a", 1)[0]
        loop_net = n.net("loop")
        inner = n.add_instance("AND2X1", (a, loop_net))
        n.add_instance("INVX1", (inner,), loop_net)
        with pytest.raises(TimingError, match="loop"):
            timing_report(n, egfet_library())

    def test_empty_netlist_has_infinite_fmax(self):
        n = Netlist("empty")
        a = n.input_bus("a", 1)
        n.output_bus("y", [a[0]])
        report = timing_report(n, egfet_library())
        assert report.fmax == float("inf")

    def test_fanout_derate_slows_paths(self):
        library = egfet_library()
        n = Netlist("fanout")
        a = n.input_bus("a", 1)[0]
        stem = n.add_instance("INVX1", (a,))
        leaves = [n.add_instance("INVX1", (stem,)) for _ in range(8)]
        n.output_bus("y", leaves)
        flat = timing_report(n, library, fanout_slope=0.0)
        derated = timing_report(n, library, fanout_slope=0.1)
        assert derated.critical_path_delay > flat.critical_path_delay


def _unateness(function, arity: int, pin: int) -> set[str]:
    """How raising input ``pin`` can move the output: "rise"/"fall"."""
    moves = set()
    for others in product((0, 1), repeat=arity - 1):
        low = list(others[:pin]) + [0] + list(others[pin:])
        high = list(others[:pin]) + [1] + list(others[pin:])
        before, after = function(*low), function(*high)
        if after > before:
            moves.add("rise")
        elif after < before:
            moves.add("fall")
    return moves


@pytest.mark.parametrize("cell", sorted(CELL_FUNCTIONS))
def test_polarity_class_matches_truth_table(cell):
    """The classes come from the numpy plans' ufunc groups; check each
    against its truth table: an inverting cell's output only ever falls
    when an input rises, a non-monotone cell's can move either way, and
    every other cell follows its inputs."""
    function, arity = CELL_FUNCTIONS[cell], CELL_ARITY[cell]
    moves = set().union(*(_unateness(function, arity, pin) for pin in range(arity)))
    if cell in NON_MONOTONE_CELLS:
        assert moves == {"rise", "fall"}
    elif cell in INVERTING_CELLS:
        assert moves == {"fall"}
    else:
        assert moves == {"rise"}
