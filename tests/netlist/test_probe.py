"""Tests for net probing, waveform capture, and module attribution."""

import math

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.cosim import CoSimHarness
from repro.coregen.generator import generate_core
from repro.errors import SimulationError
from repro.netlist.core import SEQUENTIAL_CELLS
from repro.netlist.probe import (
    ARCH_GROUPS,
    UNATTRIBUTED,
    InstructionEnergyProfiler,
    WaveProbe,
    module_map,
    named_buses,
    resolve_probes,
)
from repro.netlist.sim import CycleSimulator
from repro.pdk import egfet_library
from repro.programs import build_benchmark


@pytest.fixture(scope="module")
def core():
    return generate_core(CoreConfig(datawidth=8))


class TestNamedBuses:
    def test_architectural_buses_present(self, core):
        buses = named_buses(core)
        assert len(buses["pc"]) == 8
        assert len(buses["instr"]) == 24
        assert len(buses["flag_C"]) == 1
        assert len(buses["bar1"]) == 8

    def test_ports_win_collisions(self, core):
        buses = named_buses(core)
        assert buses["pc"] == tuple(core.outputs["pc"].nets)


class TestResolveProbes:
    def test_groups_cover_architectural_state(self, core):
        signals = resolve_probes(core, groups=ARCH_GROUPS)
        names = {s.name for s in signals}
        assert "pc" in names
        assert "flag_C" in names and "flag_Z" in names
        assert "bar1" in names
        assert {"instr", "we", "waddr", "wdata"} <= names

    def test_scopes_follow_name_conventions(self, core):
        by_name = {s.name: s for s in resolve_probes(core, groups=ARCH_GROUPS)}
        assert by_name["flag_Z"].scope == ("flags",)
        assert by_name["bar1"].scope == ("bars",)
        assert by_name["pc"].scope == ()

    def test_explicit_bit_select(self, core):
        (signal,) = resolve_probes(core, names=["pc[3]"])
        assert signal.width == 1
        assert signal.nets == (named_buses(core)["pc"][3],)

    def test_regex_selection_sorted(self, core):
        signals = resolve_probes(core, regex=r"flag_.*")
        assert [s.name for s in signals] == sorted(s.name for s in signals)
        assert all(s.name.startswith("flag_") for s in signals)

    def test_deduplicates_across_modes(self, core):
        signals = resolve_probes(core, names=["pc"], groups=("pc",))
        assert len(signals) == 1

    def test_unknown_group_rejected(self, core):
        with pytest.raises(SimulationError, match="unknown probe group"):
            resolve_probes(core, groups=("nope",))

    def test_unknown_name_rejected(self, core):
        with pytest.raises(SimulationError, match="no bus named"):
            resolve_probes(core, names=["unobtainium"])

    def test_out_of_range_bit_rejected(self, core):
        with pytest.raises(SimulationError, match="no net named"):
            resolve_probes(core, names=["pc[99]"])

    def test_empty_regex_match_rejected(self, core):
        with pytest.raises(SimulationError, match="matches no bus"):
            resolve_probes(core, regex=r"zzz.*")


class TestModuleMap:
    def test_covers_every_instance(self, core):
        labels = module_map(core)
        assert len(labels) == len(core.instances)
        assert all(labels)

    def test_flops_take_their_net_name_prefix(self, core):
        labels = module_map(core)
        names = core.named_nets()
        for index, inst in enumerate(core.instances):
            if inst.cell in SEQUENTIAL_CELLS and inst.output in names:
                assert labels[index] == names[inst.output].partition("[")[0]

    def test_unattributed_is_the_only_fallback(self, core):
        labels = module_map(core)
        modules = set(labels) - {UNATTRIBUTED}
        assert len(modules) > 3  # pc, flags, write port, ...


class TestWaveProbe:
    def test_needs_signals(self, core):
        with pytest.raises(SimulationError, match="at least one signal"):
            WaveProbe(core, [])

    def test_detach_unknown_probe_rejected(self, core):
        sim = CycleSimulator(core)
        probe = WaveProbe(core, resolve_probes(core, groups=("pc",)))
        with pytest.raises(SimulationError, match="not attached"):
            sim.detach_probe(probe)

    def test_attach_detach_round_trip(self):
        program = build_benchmark("mult", 8, 8)
        harness = CoSimHarness(program, CoreConfig(datawidth=8))
        probe = WaveProbe(
            harness.netlist, resolve_probes(harness.netlist, groups=("pc",))
        )
        harness.sim.attach_probe(probe)
        harness.step()
        harness.sim.detach_probe(probe)
        harness.step()
        assert probe.samples == 1


class TestInstructionEnergyProfiler:
    def test_energy_conserved_against_toggle_counts(self):
        library = egfet_library()
        program = build_benchmark("mult", 8, 8)
        harness = CoSimHarness(program, CoreConfig(datawidth=8))
        netlist = harness.netlist
        pc_nets = named_buses(netlist)["pc"]
        profiler = InstructionEnergyProfiler(netlist, library, pc_nets)
        harness.sim.attach_probe(profiler)
        for _ in range(60):
            harness.step()
        expected = sum(
            library.cell(netlist.instances[i].cell).energy * count
            for i, count in harness.sim.toggle_counts().items()
        )
        assert profiler.total_energy == pytest.approx(expected, rel=1e-9)
        assert math.isclose(
            sum(profiler.energy_by_pc.values()), profiler.total_energy,
            rel_tol=1e-9,
        )

    def test_cycle_histogram_covers_every_cycle(self):
        program = build_benchmark("mult", 8, 8)
        harness = CoSimHarness(program, CoreConfig(datawidth=8))
        profiler = InstructionEnergyProfiler(
            harness.netlist, egfet_library(),
            named_buses(harness.netlist)["pc"],
        )
        harness.sim.attach_probe(profiler)
        for _ in range(25):
            harness.step()
        assert sum(profiler.cycles_by_pc.values()) == 25
        assert profiler.trace.recorded == 25

    def test_ranking_orders_by_energy(self):
        program = build_benchmark("mult", 8, 8)
        harness = CoSimHarness(program, CoreConfig(datawidth=8))
        profiler = InstructionEnergyProfiler(
            harness.netlist, egfet_library(),
            named_buses(harness.netlist)["pc"],
        )
        harness.sim.attach_probe(profiler)
        for _ in range(40):
            harness.step()
        ranking = profiler.energy_ranking(top=3)
        assert len(ranking) <= 3
        energies = [e for _, e in ranking]
        assert energies == sorted(energies, reverse=True)

    def test_needs_pc_nets(self, core):
        with pytest.raises(SimulationError, match="at least one pc net"):
            InstructionEnergyProfiler(core, egfet_library(), ())
