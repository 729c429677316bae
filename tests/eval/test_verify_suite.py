"""Lane-packed suite verification (:func:`repro.eval.suite.verify_suite`)."""

import repro.eval.suite as suite_mod
from repro.eval.suite import verify_groups, verify_suite
from repro.netlist.compile import BitParallelSimulator
from repro.verify.differential import lane_verify


def test_verify_groups_cover_native_widths():
    groups = verify_groups()
    widths = [config.datawidth for config, _, _ in groups]
    assert widths == [8, 16, 32]
    by_width = {
        config.datawidth: names for config, names, _ in groups
    }
    # crc8 exists only at 8 bits; everything else at 8/16/32.
    assert "crc88" in by_width[8]
    assert len(by_width[8]) == 7
    assert len(by_width[16]) == len(by_width[32]) == 6
    for config, names, programs in groups:
        assert len(names) == len(programs)
        assert config.pipeline_stages == 1


def test_suite_agrees_with_iss_on_bigint_lanes():
    """Every native benchmark, packed per core on bigint lanes (the
    verifier's ``bitparallel`` executor), agrees with the ISS."""
    for config, names, programs in verify_groups():
        reports = lane_verify(programs, config, simulator=BitParallelSimulator)
        assert dict(zip(names, reports)) == {name: [] for name in names}


def test_verify_suite_numpy_first_group(monkeypatch):
    """The numpy leg on the 8-bit group (the full sweep runs in CI)."""
    groups = verify_groups()[:1]
    monkeypatch.setattr(suite_mod, "verify_groups", lambda: groups)
    assert verify_suite() == {"p1_8_2": 7}
