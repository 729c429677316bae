"""``python -m repro verify`` / ``python -m repro lint`` entry points.

Usage::

    python -m repro verify --seed 0 --count 50
        Fuzz 50 seeds through the differential stack on the default
        three-config cross-section of the grid.

    python -m repro verify --configs p1_8_2,p2_4_4 --jobs 4
        Specific configurations, fanned across worker processes.

    python -m repro verify --inject-fault wdata:0 --shrink-dir repros
        Fault-detection demo: inject a stuck-at-1 on the driver of
        ``wdata[0]``, expect the fuzzer to catch it, and write the
        shrunk pytest-ready repros under ``repros/``.  Exits non-zero
        if the fault *escapes*.

    python -m repro lint [CONFIG ...] [--all]
        Static lint; defaults to two representative cores, ``--all``
        sweeps the full 24-configuration grid.

Divergences exit 1 (the campaign is the check); usage errors exit 2.
"""

from __future__ import annotations

from dataclasses import replace

from repro import cli
from repro.coregen.config import config_from_name, standard_sweep
from repro.verify.corpus import DEFAULT_CONFIGS, run_campaign
from repro.verify.differential import DEFAULT_EXECUTORS, fault_site_for_output

#: Representative pair for quick lint runs: the simplest core and a
#: deep-pipeline wide one (most distinct structure in the grid).
LINT_DEFAULTS = ("p1_8_2", "p3_16_4")

VERIFY_OPTIONS = (
    cli.SEED,
    cli.Option("--count", cli.positive_int, 20, "seeds, from --seed on"),
    cli.JOBS,
    cli.Option("--max-instructions", cli.positive_int, 20,
               "longest random program"),
    cli.Option("--configs", cli.comma_list(cli.config_name),
               tuple(c.name for c in DEFAULT_CONFIGS), "cores, comma-separated"),
    cli.Option("--executors", cli.comma_list(), DEFAULT_EXECUTORS,
               "comma-separated", choices=DEFAULT_EXECUTORS),
    cli.Option("--shrink-dir", str, None, "write shrunk repros here"),
    cli.Option("--inject-fault", str, None,
               "stuck-at-1 on BUS[:BIT]'s driver; exit 1 if missed"),
)

LINT_OPTIONS = (
    replace(cli.CONFIGS, default=LINT_DEFAULTS),
    cli.Option("--all", None, False, "lint all 24 configurations"),
    cli.Option("--verbose", None, False, "also print warnings", short="-v"),
)


def verify_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro verify ...``."""
    args = cli.parse("verify", VERIFY_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    configs = [config_from_name(name) for name in args.configs]
    fault = None
    if args.inject_fault is not None:
        # A fault is an instance index into one specific netlist.
        configs = configs[:1]
        bus, _, bit = args.inject_fault.partition(":")
        from repro.coregen.generator import generate_core

        try:
            fault = fault_site_for_output(
                generate_core(configs[0]), bus, int(bit) if bit else 0
            )
        except Exception as error:
            return cli.usage_error(
                "verify", VERIFY_OPTIONS,
                f"argument --inject-fault: {args.inject_fault!r}: {error}",
            )

    seed, count, executors = args.seed, args.count, args.executors
    names = ",".join(c.name for c in configs)
    print(
        f"verify: seeds {seed}..{seed + count - 1} x configs {names} "
        f"({', '.join(executors)})"
    )
    result = run_campaign(
        range(seed, seed + count),
        configs=configs,
        executors=executors,
        fault=fault,
        jobs=args.jobs,
        max_instructions=args.max_instructions,
        out_dir=args.shrink_dir,
    )
    for case in result.failures:
        print(f"  seed {case.seed} @ {case.config_name}:")
        for divergence in case.divergences[:4]:
            print(f"    {divergence}")
    for path in result.repro_paths:
        print(f"  shrunk repro: {path}")
    print(f"verify: {result.summary()}")

    if fault is not None:
        caught = not result.ok
        print(
            "verify: injected fault was "
            + ("caught" if caught else "NOT caught")
        )
        return 0 if caught else 1
    return 0 if result.ok else 1


def lint_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro lint ...``."""
    from repro.verify.lint import lint_core

    args = cli.parse("lint", LINT_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    if args.all:
        configs = standard_sweep()
    else:
        configs = [config_from_name(name) for name in args.configs]

    failed = 0
    for config in configs:
        report = lint_core(config)
        print(report.summary())
        for finding in report.findings:
            if finding.severity == "error" or args.verbose:
                print(f"  {finding}")
        if not report.ok:
            failed += 1
    return 0 if failed == 0 else 1

