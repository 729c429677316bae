"""Tests for the variation / yield extension models."""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.errors import PDKError
from repro.netlist.stats import area_report
from repro.pdk import egfet_library
from repro.pdk.variation import (
    EGFET_DEVICE_YIELD_RANGE,
    cost_per_working_unit,
    functional_yield,
    monte_carlo_timing,
    required_device_yield,
)


@pytest.fixture(scope="module")
def small_core():
    return generate_core(CoreConfig(datawidth=4, pc_bits=4))


class TestMonteCarloTiming:
    def test_zero_sigma_is_deterministic(self, small_core):
        samples = monte_carlo_timing(
            small_core, egfet_library(), sigma=0.0, trials=8
        )
        assert len(set(samples)) == 1

    def test_spread_grows_with_sigma(self, small_core):
        library = egfet_library()
        tight = monte_carlo_timing(small_core, library, sigma=0.05, trials=32)
        loose = monte_carlo_timing(small_core, library, sigma=0.4, trials=32)

        def spread(samples):
            return max(samples) / min(samples)

        assert spread(loose) > spread(tight) > 1.0

    def test_deterministic_across_runs(self, small_core):
        library = egfet_library()
        first = monte_carlo_timing(small_core, library, sigma=0.2, trials=16)
        second = monte_carlo_timing(small_core, library, sigma=0.2, trials=16)
        assert first == second

    def test_negative_sigma_rejected(self, small_core):
        with pytest.raises(PDKError):
            monte_carlo_timing(small_core, egfet_library(), sigma=-0.1)


class TestFunctionalYield:
    def test_yield_decays_with_device_count(self):
        assert functional_yield(100, 0.999) > functional_yield(1000, 0.999)

    def test_published_yield_range_kills_large_designs(self):
        """Even at the paper's best measured device yield (99%), a
        thousand-device design is hopeless -- the quantitative teeth
        behind minimizing gate count in printed technologies."""
        best = EGFET_DEVICE_YIELD_RANGE[1]
        assert functional_yield(1000, best) < 1e-4

    def test_small_cores_win_cost_per_working_unit(self):
        """At equal device yield, the TP-ISA core's area advantage over
        light8080 *grows* once yield is priced in."""
        library = egfet_library()
        tp = area_report(generate_core(CoreConfig(datawidth=8)), library)
        device_yield = 0.9995
        tp_devices = tp.transistors + tp.resistors
        tp_cost = cost_per_working_unit(
            tp.total, functional_yield(tp_devices, device_yield)
        )
        # light8080: published 1948 gates; devices estimated with the
        # same per-gate device density as the TP core.
        density = tp_devices / tp.gate_count
        legacy_devices = int(1948 * density)
        from repro.baselines.specs import BASELINE_SPECS

        legacy_area = BASELINE_SPECS["light8080"].egfet.area
        legacy_cost = cost_per_working_unit(
            legacy_area, functional_yield(legacy_devices, device_yield)
        )
        raw_ratio = legacy_area / tp.total
        yielded_ratio = legacy_cost / tp_cost
        assert yielded_ratio > raw_ratio

    def test_required_device_yield(self):
        needed = required_device_yield(1500, target_yield=0.9)
        assert 0.99 < needed < 1.0
        assert functional_yield(1500, needed) == pytest.approx(0.9, rel=1e-6)

    def test_validation(self):
        with pytest.raises(PDKError):
            functional_yield(10, 0.0)
        with pytest.raises(PDKError):
            required_device_yield(10, 1.0)
        assert cost_per_working_unit(1.0, 0.0) == float("inf")
