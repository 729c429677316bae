"""Vectorized fleet timing vs the scalar reference walk: bit-exact."""

import numpy as np
import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.errors import PDKError
from repro.mc.timing import nominal_delay, sample_delays, timing_kernel
from repro.pdk import technology_library
from repro.pdk.variation import monte_carlo_timing

#: >= 4 sweep configurations, both printed technologies (satellite 3).
SWEEP = (
    CoreConfig(datawidth=4),
    CoreConfig(datawidth=8),
    CoreConfig(datawidth=8, pipeline_stages=3),
    CoreConfig(datawidth=16),
)
TECHNOLOGIES = ("EGFET", "CNT")


@pytest.mark.parametrize("config", SWEEP, ids=lambda c: c.name)
@pytest.mark.parametrize("technology", TECHNOLOGIES)
def test_vectorized_matches_scalar_reference(config, technology):
    netlist = generate_core(config)
    library = technology_library(technology)
    trials = 12
    dist = monte_carlo_timing(
        netlist, library, sigma=0.2, trials=trials, seed=0xBEEF
    )
    vec = sample_delays(netlist, library, 0.2, 0, trials, 0xBEEF)
    assert np.array_equal(np.array(dist.samples), vec)


def test_blocked_kernel_matches_one_block_calls():
    """2048 units cross the sampler's row blocks; ``block=7`` does not."""
    netlist = generate_core(CoreConfig(datawidth=8))
    library = technology_library("EGFET")
    fleet = sample_delays(netlist, library, 0.2, 0, 2048, seed=0xBEEF)
    small = sample_delays(netlist, library, 0.2, 0, 2048, seed=0xBEEF, block=7)
    assert np.array_equal(fleet, small)
    dist = monte_carlo_timing(netlist, library, sigma=0.2, trials=12, seed=0xBEEF)
    assert np.array_equal(fleet[:12], np.array(dist.samples))


def test_sub_range_is_bit_exact():
    """Unit index addresses the sample: sharding cannot change it."""
    netlist = generate_core(CoreConfig(datawidth=4))
    library = technology_library("EGFET")
    whole = sample_delays(netlist, library, 0.2, 0, 64, seed=7)
    for lo, hi in ((0, 16), (16, 48), (48, 64), (13, 21)):
        part = sample_delays(netlist, library, 0.2, lo, hi, seed=7)
        assert np.array_equal(part, whole[lo:hi])


def test_block_size_does_not_change_samples():
    netlist = generate_core(CoreConfig(datawidth=4))
    library = technology_library("EGFET")
    a = sample_delays(netlist, library, 0.2, 0, 50, seed=3, block=7)
    b = sample_delays(netlist, library, 0.2, 0, 50, seed=3, block=2048)
    assert np.array_equal(a, b)


def test_nominal_matches_sigma_zero():
    netlist = generate_core(CoreConfig(datawidth=4))
    library = technology_library("EGFET")
    nominal = nominal_delay(netlist, library)
    assert nominal > 0
    zeros = sample_delays(netlist, library, 0.0, 0, 4, seed=1)
    assert np.array_equal(zeros, np.full(4, nominal))


def test_kernel_memoized_per_library():
    netlist = generate_core(CoreConfig(datawidth=4))
    egfet = technology_library("EGFET")
    cnt = technology_library("CNT")
    assert timing_kernel(netlist, egfet) is timing_kernel(netlist, egfet)
    assert timing_kernel(netlist, egfet) is not timing_kernel(netlist, cnt)


def test_validation():
    netlist = generate_core(CoreConfig(datawidth=4))
    library = technology_library("EGFET")
    with pytest.raises(PDKError):
        sample_delays(netlist, library, -0.1, 0, 4, seed=0)
    with pytest.raises(PDKError):
        sample_delays(netlist, library, 0.2, 4, 0, seed=0)
