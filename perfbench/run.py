"""Benchmark of what ``repro`` users run: paper_dse, yield_fleet, verify_fuzz.

    python3 perfbench/run.py --workload paper_dse --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One invocation measures one workload in its own fresh process.  Before
``repro`` is imported (from ``src/`` of this checkout) it pins
``REPRO_JOBS=1`` and ``REPRO_HISTORY=0``, unsets ``REPRO_TRACE``, and points
``REPRO_CACHE_DIR`` at a private, empty directory under ``.perfbench/``
that is deleted on exit -- so no run reads or warms ``~/.cache/repro`` or
another run.  It then sets up cold :data:`SETUP_REPS` times, each in a
fresh cache directory, and runs whole rounds of ops as a closed loop
until ``--seconds`` have passed.

The last line of standard output is the JSON result.  The line before it
starts with ``report`` and carries what the metrics leave out: the host
fingerprint, op count and tail percentile, failures, the digest of every
simulated result, and the fleet-vs-STA fmax gap.  Every time is host
seconds of a 1-worker run.  ``--trace 1`` alternates untraced and traced
rounds (``perfbench/tracing.py``) and prints the per-layer metrics;
``trace_overhead_pct`` compares each traced round with the untraced one
before it.  ``--workload all`` runs every
workload, each in its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Parent of the per-run private cache directories (removed on exit).
RUN_ROOT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("paper_dse", "yield_fleet", "verify_fuzz")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30.0
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: ``op_tail_s`` is the latency with exactly this many slower ops.
TAIL_BEYOND = 10
#: ``work_per_s`` and ``op_p90_s`` time each kind of op at this quantile of
#: its latencies over the run (see :func:`latency_metrics`).
KIND_QUANTILE = 0.9

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "work_per_s": "1/s",
    "op_p90_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fmax_agreement_pct": "%",
}

#: Per-layer self seconds, reported per timed op.
_SELF_TIMES = (
    "sim.machine.self_s", "netlist.sta.self_s", "netlist.power.self_s",
    "netlist.stats.self_s", "programs.self_s", "eval.system.self_s",
    "dse.sweep.self_s", "exec.cache.load_s", "exec.cache.store_s",
    "coregen.self_s", "netlist.compile.codegen_s", "netlist.nsim.codegen_s",
    "netlist.nsim.lanes_s", "netlist.sim.cosim_s", "netlist.compile.cosim_s",
    "netlist.compile.lanes_s", "mc.sampling.self_s", "mc.timing.self_s",
    "mc.fyield.self_s", "coregen.fault_test.self_s", "mc.sketch.self_s",
    "mc.engine.self_s", "verify.generator.self_s",
    "verify.differential.self_s", "exec.engine.self_s", "unattributed_s",
)
#: Set-up self seconds (per set-up) of the layers set-up time rests on.
_SETUP_SELF_TIMES = (
    "coregen.self_s", "netlist.compile.codegen_s", "netlist.nsim.codegen_s",
    "netlist.sta.self_s", "sim.machine.self_s", "exec.cache.store_s",
    "unattributed_s",
)

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    **{name: "s" for name in _SELF_TIMES},
    "sim.machine.instr_per_s": "1/s",
    "netlist.sta.cells_per_s": "1/s",
    "exec.cache.hit_ratio": "ratio",
    "coregen.calls": "count",
    "netlist.nsim.lane_cycles_per_s": "1/s",
    "mc.fyield.lane_efficiency": "ratio",
    "trace_overhead_pct": "%",
    **{f"setup.{name}": "s" for name in _SETUP_SELF_TIMES},
}


@dataclass
class OpRecord:
    round: int
    #: Place in its round; ops in the same slot are the same kind of op.
    slot: int
    latency: float
    work: int
    failure: str | None
    digest_text: str


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fingerprint() -> dict:
    """The host the numbers were measured on."""
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": 1,
    }


def _run_op(workload, op, round_index: int, slot: int, tracer) -> OpRecord:
    """Time one op (under a root span when traced), then check it."""
    result, failure = None, None
    began = time.perf_counter()
    try:
        with tracer.root("op") if tracer is not None else nullcontext():
            result = workload.execute(op)
    except Exception as error:  # a raising op counts as failed
        failure = f"{type(error).__name__}: {error}"
    latency = time.perf_counter() - began
    if failure is None:
        try:
            failure = workload.check(op, result)
        except Exception as error:
            failure = f"check raised {type(error).__name__}: {error}"
    ok = failure is None
    return OpRecord(
        round=round_index,
        slot=slot,
        latency=latency,
        work=workload.work(result) if ok else 0,
        failure=failure,
        digest_text=workload.digest_text(op, result) if ok else "failed",
    )


def run_rounds(workload, seed: int, seconds: float,
               tracer=None) -> tuple[list[OpRecord], float]:
    """Whole rounds of ops, closed loop, until ``seconds`` have passed.

    Returns the records and the peak resident set (MiB) at the end of
    the first ``workload.digest_rounds`` rounds, or of the run if it is
    shorter.  ``repro`` caches grow with every new input, so the peak at
    the end of a run would follow how many rounds the host's speed let
    it reach.  With a tracer, odd rounds run traced and even rounds
    untraced, and at least one of each runs.
    """
    records: list[OpRecord] = []
    peak_rss_mb = 0.0
    started = time.perf_counter()
    for index, ops in enumerate(workload.rounds(seed)):
        enough = index >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - started >= seconds:
            break
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            workload.start_round()
            for slot, op in enumerate(ops):
                records.append(
                    _run_op(workload, op, index, slot, tracer if traced else None)
                )
        finally:
            if traced:
                tracer.uninstall()
        if index < workload.digest_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, peak_rss_mb


def _digest(records: list[OpRecord]) -> dict:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.digest_text.encode())
        digest.update(b"\n")
    return {"ops": len(records), "sha256": digest.hexdigest()}


def _quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated between order statistics."""
    values = sorted(values)
    position = q * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def latency_metrics(records: list[OpRecord]) -> dict:
    """Throughput, typical op and tail over ``records`` (all ops, failed too).

    The op in the same place of every round is the same kind of op, and
    each kind is timed at its :data:`KIND_QUANTILE` latency over the run.
    On a host whose cores are shared with other tenants, speed switches
    between a contended state and a much faster uncontended one, for
    seconds to minutes at a time, and the share of each differs from run
    to run.  A mean or median moves with that share; the 90th percentile
    stays in the contended state unless the run spent more than 90% of
    its time in the fast one.

    ``work_per_s`` is the work of a mean round over the time of a round
    whose every op takes its kind's quantile latency; ``op_p90_s`` is the
    geometric mean over kinds of that latency: the typical op, where the
    median would rest on the one or two middle kinds alone (of three on
    ``verify_fuzz``, whose fresh inputs spread each kind's latencies
    threefold).  ``mean_work_per_s`` (all work over all op time) goes to
    the report.
    """
    latencies = sorted(record.latency for record in records)
    n = len(latencies)
    if n > TAIL_BEYOND:
        tail, percentile = latencies[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, percentile = latencies[-1], 100.0
    kinds: dict = {}
    for record in records:
        kinds.setdefault(record.slot, []).append(record.latency)
    kind_latencies = [_quantile(kind, KIND_QUANTILE) for kind in kinds.values()]
    rounds = len({record.round for record in records})
    work = sum(r.work for r in records)
    return {
        "work_per_s": _ratio(work / rounds, sum(kind_latencies)),
        "op_p90_s": statistics.geometric_mean(kind_latencies),
        "op_tail_s": tail,
        "mean_work_per_s": _ratio(work, sum(latencies)),
        "tail_percentile": percentile,
        "ops": n,
        "rounds": rounds,
    }


def round_rates(records: list[OpRecord]) -> dict:
    """``{round: work per second of op time}``."""
    totals: dict = {}
    for record in records:
        work, busy = totals.get(record.round, (0, 0.0))
        totals[record.round] = (work + record.work, busy + record.latency)
    return {index: _ratio(work, busy) for index, (work, busy) in totals.items()}


def layer_metrics(ops, setup, records: list[OpRecord], setup_reps: int) -> dict:
    """Per-layer metrics from traced op and set-up totals, per op and per set-up."""
    per_op = {name: _ratio(ops.self_s.get(name, 0.0), ops.roots) for name in _SELF_TIMES}
    # Each traced round against the untraced round just before it, so
    # that host drift over the run cancels.
    rates = round_rates(records)
    slowdowns = [
        _ratio(rates[index - 1], rates[index])
        for index in rates if index % 2 == 1 and index - 1 in rates
    ]
    return {
        **per_op,
        "sim.machine.instr_per_s": _ratio(
            ops.counts.get("instructions", 0), ops.self_s.get("sim.machine.self_s", 0.0)),
        "netlist.sta.cells_per_s": _ratio(
            ops.counts.get("sta_cells", 0), ops.self_s.get("netlist.sta.self_s", 0.0)),
        "exec.cache.hit_ratio": _ratio(
            ops.counts.get("cache_hits", 0), ops.calls.get("exec.cache.load_s", 0)),
        "coregen.calls": _ratio(ops.calls.get("coregen.self_s", 0), ops.roots),
        "netlist.nsim.lane_cycles_per_s": _ratio(
            ops.counts.get("lane_cycles", 0), ops.self_s.get("netlist.nsim.lanes_s", 0.0)),
        "mc.fyield.lane_efficiency": _ratio(
            ops.counts.get("units_judged", 0), ops.counts.get("lanes", 0)),
        "trace_overhead_pct": 100.0 * (statistics.median(slowdowns) - 1.0),
        **{
            f"setup.{name}": _ratio(setup.self_s.get(name, 0.0), setup_reps)
            for name in _SETUP_SELF_TIMES
        },
    }


def measure(workload, seed: int, seconds: float, cache_root: Path,
            trace: bool = False, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Set up cold ``setup_reps`` times, then run the timed loop.

    Returns ``(result, report)``: the JSON result printed last and
    the longer report printed before it.  Must run after :func:`isolate`
    (or an equivalent environment) in a process of its own.
    """
    import repro.exec

    from perfbench.workloads import fmax_agreement

    tracer = None
    if trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_times = []
    try:
        for rep in range(setup_reps):
            os.environ["REPRO_CACHE_DIR"] = str(cache_root / f"cache{rep}")
            repro.exec.clear_caches()
            gc.collect()
            began = time.perf_counter()
            with tracer.root("setup") if tracer is not None else nullcontext():
                workload.prepare()
            setup_times.append(time.perf_counter() - began)
    finally:
        if tracer is not None:
            tracer.uninstall()
    gc.collect()
    records, peak_rss_mb = run_rounds(workload, seed, seconds, tracer)
    fmax = fmax_agreement()
    timing = latency_metrics(records)
    failures = [r.failure for r in records if r.failure is not None]

    if tracer is None:
        metrics = {
            "work_per_s": timing["work_per_s"],
            "op_p90_s": timing["op_p90_s"],
            "op_tail_s": timing["op_tail_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "fmax_agreement_pct": fmax["agreement_pct"],
        }
        units = END_TO_END
    else:
        ops, setup = tracer.totals("op"), tracer.totals("setup")
        metrics = layer_metrics(ops, setup, records, setup_reps)
        units = PER_LAYER
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "work_unit": workload.work_unit,
        "seed": seed,
        "seconds": seconds,
        "clock": "host seconds, 1 worker (REPRO_JOBS=1), closed loop, one client",
        "host": fingerprint(),
        "rounds": timing["rounds"],
        "ops": timing["ops"],
        "measured_s": sum(r.latency for r in records),
        "mean_work_per_s": timing["mean_work_per_s"],
        "tail_percentile": timing["tail_percentile"],
        "tail_ops_beyond": min(TAIL_BEYOND, timing["ops"] - 1),
        "setup_s_each": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "fmax_gap_pct": fmax["gap_pct"],
        "fmax_agreement_pct": fmax["agreement_pct"],
        "fmax_gap_pair": fmax["gap_pair"],
        "fmax_ratios": fmax["ratios"],
        "failures": failures[:5],
        "digest": _digest([r for r in records if r.round < workload.digest_rounds]),
        "digest_all": _digest(records),
    }
    if tracer is not None:
        report["trace_skipped"] = sorted(tracer.skipped)
        report["traced_ops"] = ops.roots
        report["op_layers_s"] = {
            name: value / ops.roots for name, value in sorted(ops.self_s.items())
        }
        report["setup_layers_s"] = {
            name: value / setup_reps for name, value in sorted(setup.self_s.items())
        }
    return result, report


def isolate(cache_root: Path) -> None:
    """Pin the environment ``repro`` reads; call before importing it."""
    os.environ["REPRO_CACHE_DIR"] = str(cache_root / "cache")
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_HISTORY"] = "0"
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_TRACE", None)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_one(args) -> int:
    RUN_ROOT.mkdir(exist_ok=True)
    cache_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_ROOT))
    try:
        isolate(cache_root)
        import repro

        if Path(repro.__file__).resolve().parent != SRC / "repro":
            print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        from perfbench.workloads import WORKLOADS

        result, report = measure(
            WORKLOADS[args.workload](), args.seed, args.seconds, cache_root,
            trace=bool(args.trace),
        )
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass  # another run still holds its directory
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of what each printed."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"{name}: exit {child.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        report = next(
            (json.loads(line[len("report "):]) for line in lines if line.startswith("report ")),
            {},
        )
        results[name] = result
        status |= 0 if result["correct"] else 1
        print(f"== {name}: {report.get('work_unit')}; {report.get('why')}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
        print(
            f"  ops {result['attempted']} attempted, {result['failed']} failed; "
            f"tail at p{report.get('tail_percentile', 0):.2f} of {report.get('ops')} ops; "
            f"fmax_gap_pct {report.get('fmax_gap_pct', 0):.1f} "
            f"({report.get('fmax_gap_pair')})"
        )
        if report.get("trace_skipped"):
            print(f"  not traced (entry point missing): {', '.join(report['trace_skipped'])}")
        digest = report.get("digest", {})
        print(f"  digest {digest.get('sha256', '')[:16]} over the first {digest.get('ops')} ops")
        for failure in report.get("failures", []):
            print(f"  failed: {failure}")
    if results:
        host = fingerprint()
        print(f"host: {host['cpu_model']}, nproc {host['nproc']}, python "
              f"{host['python']}, numpy {host['numpy']}; 1-worker host seconds")
    print(json.dumps({"workloads": results}))
    return status


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a repro checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
