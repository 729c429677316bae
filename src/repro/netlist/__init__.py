"""Gate-level netlist substrate.

This package stands in for the commercial synthesis flow the paper used
(Synopsys Design Compiler): a hierarchical gate-level netlist builder
whose logic operations map directly onto the printed standard-cell
libraries, plus the analyses the paper reports -- static timing
(:mod:`repro.netlist.sta`), activity-based power
(:mod:`repro.netlist.power`), area/cell statistics
(:mod:`repro.netlist.stats`) -- and cycle-accurate gate-level
simulation used to verify generated cores against the
instruction-set simulator.  Three bit-exact simulators exist: the
levelized interpreter (:mod:`repro.netlist.sim`, the reference and the
only one that counts toggles and hosts probes), bigint bit-parallel
lanes over straight-line code generated by
:mod:`repro.netlist.compile` (1 to N stimulus sets or faults per
pass), and vectorized numpy bit-slice kernels
(:mod:`repro.netlist.nsim`) that advance thousands of lanes per
kernel call.  Lane batches are described backend-agnostically by
:class:`repro.netlist.lanes.LanePlan`.

Timing and power share one net-load model (:mod:`repro.netlist.load`):
fanout-proportional capacitance in the wire-blind default, extended by
placement-derived wire RC (:mod:`repro.place`) when an
:class:`~repro.netlist.load.RCAnnotation` is supplied.
"""

from repro.netlist.core import Bus, Instance, Netlist, CONST0, CONST1
from repro.netlist.load import (
    DEFAULT_FANOUT_SLOPE,
    RCAnnotation,
    WireRC,
    fanout_counts,
    fanout_derate,
    net_derate,
)
from repro.netlist.sta import TimingReport, timing_report
from repro.netlist.power import (
    AttributedPowerReport,
    PowerReport,
    attributed_power_report,
    measured_power_report,
    power_report,
)
from repro.netlist.stats import AreaReport, area_report, cell_histogram
from repro.netlist.sim import CycleSimulator
from repro.netlist.compile import (
    BitParallelSimulator,
    CompiledNetlist,
    compile_netlist,
    compiled_netlist,
)
from repro.netlist.lanes import LanePlan
from repro.netlist.nsim import NumpyCompiled, NumpySimulator, numpy_netlist
from repro.netlist.probe import (
    InstructionEnergyProfiler,
    Probe,
    ProbeSignal,
    WaveProbe,
    module_map,
    named_buses,
    resolve_probes,
)

__all__ = [
    "BitParallelSimulator",
    "CompiledNetlist",
    "compile_netlist",
    "compiled_netlist",
    "LanePlan",
    "NumpyCompiled",
    "NumpySimulator",
    "numpy_netlist",
    "Bus",
    "Instance",
    "Netlist",
    "CONST0",
    "CONST1",
    "DEFAULT_FANOUT_SLOPE",
    "RCAnnotation",
    "WireRC",
    "fanout_counts",
    "fanout_derate",
    "net_derate",
    "TimingReport",
    "timing_report",
    "AttributedPowerReport",
    "PowerReport",
    "attributed_power_report",
    "measured_power_report",
    "power_report",
    "AreaReport",
    "area_report",
    "cell_histogram",
    "CycleSimulator",
    "InstructionEnergyProfiler",
    "Probe",
    "ProbeSignal",
    "WaveProbe",
    "module_map",
    "named_buses",
    "resolve_probes",
]
