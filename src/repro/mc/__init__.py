"""Fleet-scale Monte-Carlo yield engine.

The ROADMAP's "millions of users" north star literally means millions
of printed *device instances*, each with its own process variation and
its own device defects.  This package turns the analytic models of
:mod:`repro.pdk.variation` into a campaign driver that simulates that
fleet:

* :mod:`repro.mc.sampling` -- deterministic counter-based substream
  sampler (one independent stream per cell instance, one draw per
  printed unit) whose scalar and vectorized paths produce bit-identical
  samples, so sharding and trial count never change a unit's dice roll;
* :mod:`repro.mc.timing` -- vectorized variation-aware STA: per-cell
  lognormal delay factors as a ``(cells, instances)`` matrix pushed
  through STA's own (rise, fall) arrival pass
  (:func:`repro.netlist.sta.propagate`), one column per instance, so
  the fleet's sigma-0 fmax is the STA fmax;
* :mod:`repro.mc.fyield` -- sampled device defects mapped to stuck-at
  faults and lane-packed through the real netlist
  (:class:`~repro.netlist.lanes.LanePlan` + ``NumpySimulator``), so
  functional yield is measured on the application, not assumed from
  the analytic ``y^n`` formula;
* :mod:`repro.mc.sketch` -- mergeable log-bucket quantile sketches;
  shards stream summaries, not samples, and merging is bucket-count
  addition (bit-exact regardless of worker count);
* :mod:`repro.mc.engine` -- the campaign driver: shards instance
  blocks across :func:`repro.exec.parallel_map` workers and merges
  per-shard sketches into one :class:`~repro.mc.engine.YieldReport`.

CLI: ``python -m repro yield CONFIGS... --instances N --jobs N``.
See docs/MODELS.md ("Monte-Carlo yield engine") for the model and
docs/PARALLELISM.md for the sharding contract.
"""

from repro.mc.engine import YieldReport, YieldSpec, run_yield_campaign
from repro.mc.sampling import SubstreamSampler
from repro.mc.sketch import QuantileSketch
from repro.mc.timing import sample_delays

__all__ = [
    "QuantileSketch",
    "SubstreamSampler",
    "YieldReport",
    "YieldSpec",
    "run_yield_campaign",
    "sample_delays",
]
