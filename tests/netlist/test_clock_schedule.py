"""The one clock schedule every core run on behavioural memories takes.

:class:`~repro.netlist.lanes.ClockSchedule` reads ``pc`` unsettled,
settles only the address cone before it provides read data, and
settles in full once per clock.  These tests check the cones it
derives on real cores, the netlists it refuses, and that a clock costs
exactly one cone settle and one full settle on every backend.  Memory
feedback through a flop, which it accepts, runs on every backend in
``tests/test_sim_compiled.py`` (``TestFixedPointBehaviour``).
"""

import pytest

from repro.coregen import cosim
from repro.coregen.config import CoreConfig, standard_sweep
from repro.coregen.cosim import CoSimHarness
from repro.coregen.generator import generate_core
from repro.coregen.isa_map import encode_program_for_core
from repro.errors import SimulationError
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.core import CONST0, CONST1, SEQUENTIAL_CELLS, Netlist
from repro.netlist.lanes import LaneMemoryHarness, clock_schedule
from repro.netlist.nsim import NumpySimulator
from repro.programs import build_benchmark
from repro.verify import DEFAULT_CONFIGS, random_program
from repro.verify.differential import ps_isa_variant
from tests.netlist.helpers import memory_netlist

BACKENDS = ("interpreted", "compiled", "bigint", "numpy")
LANE_SIMULATORS = {"bigint": BitParallelSimulator, "numpy": NumpySimulator}


def assert_schedulable(netlist):
    """``pc`` comes from flops; no address reads ``rdata_*``."""
    schedule = clock_schedule(netlist)
    flops = {i.output for i in netlist.instances if i.cell in SEQUENTIAL_CELLS}
    assert set(netlist.outputs["pc"].nets) <= flops | {CONST0, CONST1}
    rdata = {net for name in ("rdata_a", "rdata_b") for net in netlist.inputs[name]}
    addresses = {net for name in ("addr_a", "addr_b") for net in netlist.outputs[name]}
    assert not rdata & addresses
    for cell in schedule.address_cone:
        assert not rdata & set(cell.inputs), cell


class TestCones:
    @pytest.mark.parametrize("config", standard_sweep(), ids=lambda c: c.name)
    def test_sweep_cores(self, config):
        netlist = generate_core(config)
        assert_schedulable(netlist)
        combinational = len(netlist.instances) - sum(
            i.cell in SEQUENTIAL_CELLS for i in netlist.instances
        )
        assert 0 < len(clock_schedule(netlist).address_cone) < combinational

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("config", DEFAULT_CONFIGS, ids=lambda c: c.name)
    def test_program_specific_cores(self, config, seed):
        program = random_program(
            seed, datawidth=config.datawidth, num_bars=config.num_bars
        )
        _, ps_config = ps_isa_variant(program, config)
        assert_schedulable(generate_core(ps_config))

    def test_memoized_and_dropped_on_pickle(self):
        import pickle

        netlist = generate_core(CoreConfig(datawidth=8))
        assert clock_schedule(netlist) is clock_schedule(netlist)
        clone = pickle.loads(pickle.dumps(netlist))
        assert not hasattr(clone, "_clock_schedule")


def combinational(netlist, rdata_a):
    return [netlist.not_(net) for net in rdata_a]


def lane_harness(sim):
    return LaneMemoryHarness(
        sim, lanes=1, rom=[0], base_memory=[0] * 16,
        halt_word=lambda pc: 0, pc_bits=4,
    )


class TestRefusal:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_address_reading_its_read_data_refused(self, backend, monkeypatch):
        netlist = memory_netlist(combinational)
        match = "'addr_a'.*'rdata_a'"
        if backend in LANE_SIMULATORS:
            sim = LANE_SIMULATORS[backend](netlist, 1)
            with pytest.raises(SimulationError, match=match):
                lane_harness(sim)
        else:
            monkeypatch.setattr(cosim, "generate_core", lambda config: netlist)
            with pytest.raises(SimulationError, match=match):
                CoSimHarness(build_benchmark("crc8", 8, 8), backend=backend)

    @pytest.mark.parametrize(
        "source,match",
        [("flops", "'pc'.*flops"), ("instr", "'pc'.*'instr'")],
        ids=["through-flops", "from-instr"],
    )
    def test_pc_through_logic_refused(self, source, match):
        netlist = Netlist("schedule")
        instr = netlist.input_bus("instr", 2)
        for name in ("rdata_a", "rdata_b"):
            netlist.input_bus(name, 2)
        q = netlist.register(instr.nets, name="q")
        drives = q if source == "flops" else instr
        netlist.output_bus("pc", [netlist.not_(net) for net in drives])
        for name in ("addr_a", "addr_b"):
            netlist.output_bus(name, q.nets)
        with pytest.raises(SimulationError, match=match):
            clock_schedule(netlist)

    def test_missing_port_refused(self):
        netlist = Netlist("schedule")
        netlist.input_bus("instr", 1)
        netlist.output_bus("pc", netlist.register([CONST1], name="q").nets)
        with pytest.raises(SimulationError, match="addr_a"):
            clock_schedule(netlist)


def count_settles(monkeypatch, sim):
    """Record the outermost settle calls on ``sim`` by method name."""
    calls = []
    depth = [0]
    for name in ("settle", "settle_cone"):
        original = getattr(sim, name)

        def counted(*args, _name=name, _original=original):
            if not depth[0]:
                calls.append(_name)
            depth[0] += 1
            try:
                return _original(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(sim, name, counted)
    return calls


class TestSettleCounts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_cone_settle_and_one_full_settle_per_clock(
        self, backend, monkeypatch
    ):
        program = build_benchmark("mult", 8, 8)
        config = CoreConfig(datawidth=8)
        if backend in LANE_SIMULATORS:
            netlist = generate_core(config)
            harness = LaneMemoryHarness(
                LANE_SIMULATORS[backend](netlist, 2), lanes=2,
                rom=encode_program_for_core(program, config),
                base_memory=[0] * config.data_memory_words(),
                halt_word=lambda pc: 0, pc_bits=config.pc_bits,
            )
            harness.sim.reset()
        else:
            harness = CoSimHarness(program, config, backend=backend)
        calls = count_settles(monkeypatch, harness.sim)
        for _ in range(6):
            harness.step()
        assert calls == ["settle_cone", "settle"] * 6
        if isinstance(harness, CoSimHarness):
            calls.clear()
            pc = harness.sim.read_output("pc")
            assert harness.pc == (pc[0] if backend == "compiled" else pc)
            assert calls == []
