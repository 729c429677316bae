"""Job-kind registry: one serve job = one existing pipeline driver.

Each kind maps a JSON ``params`` dict onto one of the repo's existing
entry points and returns a JSON-serializable result.  Two invariants
matter to the service layer:

* **Canonical parameters** (:func:`canonical_params`): each kind's
  parameters are :class:`repro.cli.Option` records -- the very options
  of the command the kind runs -- so defaults, types and ranges match
  the CLI's.  Values are validated and coerced through them, so
  ``{"instances": "500"}`` and ``{"instances": 500}`` submit *the same*
  job -- the dedup key (:func:`repro.serve.jobs.job_key`) hashes the
  canonical form.  Unknown names and bad values are rejected up front
  with a :class:`ConfigError` naming the parameter (HTTP 400) rather
  than surfacing as a confusing driver error.
* **Inherited fan-out**: drivers pass ``jobs=None`` everywhere, so the
  per-job process fan-out resolves through
  :func:`repro.exec.resolve_jobs` to the service's ``--jobs`` setting
  (via :func:`repro.exec.set_default_jobs`).

Results must stay modest in size (they are held in memory and served
as JSON); anything bulky — layout HTML, per-case detail — is dropped
or summarized here.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.apps.campaign import CAMPAIGN_OPTIONS, campaign_target
from repro.apps.place import PLACE_OPTIONS, _place_one
from repro.apps.profile import PROFILE_OPTIONS, profile_design
from repro.apps.yieldcli import YIELD_OPTIONS
from repro.cli import CONFIG, TECHNOLOGY, Option, positive_int
from repro.errors import ConfigError

#: kind -> (options, driver) registry; see :func:`register_driver`.
DRIVERS: dict[str, tuple[tuple[Option, ...], Callable[[dict], dict]]] = {}


def register_driver(
    kind: str, options: Sequence[Option], fn: Callable[[dict], dict]
) -> None:
    """Add (or replace, for tests) one job kind and its parameters."""
    DRIVERS[kind] = (tuple(options), fn)


def job_kinds() -> tuple[str, ...]:
    """Registered kinds, sorted."""
    return tuple(sorted(DRIVERS))


def canonical_params(kind: str, params: dict | None) -> dict:
    """Defaults filled in, values checked and coerced, unknown names rejected.

    Each value goes through its option's parser (native JSON values and
    their string forms alike), so a request coerces exactly as the same
    flag on the command line; ``None`` stands for the default.

    Raises:
        ConfigError: Naming the unknown kind, the unknown parameters, or
            the parameter whose value is bad.
    """
    if kind not in DRIVERS:
        raise ConfigError(
            f"unknown job kind {kind!r} (have: {', '.join(job_kinds())})"
        )
    options, _ = DRIVERS[kind]
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ConfigError(f"{kind} params must be a JSON object")
    by_name = {option.name: option for option in options}
    unknown = sorted(set(params) - set(by_name))
    if unknown:
        raise ConfigError(
            f"unknown {kind} parameter(s): {', '.join(unknown)} "
            f"(have: {', '.join(sorted(by_name))})"
        )
    canonical = {}
    for name, option in by_name.items():
        value = params.get(name)
        try:
            canonical[name] = (
                option.default if value is None else option.convert(value)
            )
        except (ValueError, ConfigError) as error:
            raise ConfigError(f"{kind} parameter {name!r}: {error}") from None
    return canonical


def run_job(kind: str, params: dict) -> dict:
    """Execute one job (params must already be canonical)."""
    _, fn = DRIVERS[kind]
    return fn(params)


# -- the built-in kinds ----------------------------------------------------


def _run_sweep(params: dict) -> dict:
    from repro.dse.sweep import sweep_design_space

    points = sweep_design_space(technology=params["technology"])
    rows = [
        {
            "design": p.name,
            "fmax": p.fmax,
            "area": p.area,
            "power_at_fmax": p.power_at_fmax,
            "gate_count": p.gate_count,
            "dff_count": p.dff_count,
        }
        for p in points
    ]
    return {
        "technology": params["technology"],
        "count": len(rows),
        "points": rows,
    }


def _run_yield(params: dict) -> dict:
    from repro.coregen.config import config_from_name
    from repro.mc.engine import YieldSpec, run_yield_campaign

    spec = YieldSpec(
        config=config_from_name(params["config"]),
        technology=params["technology"],
        program_name=params["program"],
        program_width=params["width"],
        sigma=params["sigma"],
        device_yield=params["device_yield"],
        seed=params["seed"],
    )
    report = run_yield_campaign(spec, params["instances"])
    return report.to_dict()


def _run_campaign(params: dict) -> dict:
    from repro.coregen.fault_test import run_fault_campaign

    program, config, design = campaign_target(
        params["program"], params["width"], params["config"]
    )
    campaign = run_fault_campaign(
        program,
        config=config,
        stride=params["stride"],
        max_faults=params["max_faults"],
        backend=params["backend"],
    )
    return {
        "design": design,
        "program": params["program"],
        "backend": params["backend"],
        "total": campaign.total,
        "detected": campaign.detected,
        "coverage": campaign.detected / campaign.total
        if campaign.total
        else 0.0,
        "undetected": len(campaign.undetected_sites),
    }


def _run_verify(params: dict) -> dict:
    from repro.verify.corpus import run_campaign

    result = run_campaign(
        range(params["seeds"]),
        max_cycles=params["max_cycles"],
        shrink_failures=False,
    )
    return {
        "cases": len(result.cases),
        "failures": len(result.failures),
        "ok": result.ok,
        "summary": result.summary(),
        "divergent_seeds": sorted({c.seed for c in result.failures}),
    }


def _run_profile(params: dict) -> dict:
    from repro.coregen.config import config_from_name

    return profile_design(
        config_from_name(params["config"]),
        program_name=params["program"],
        technology=params["technology"],
        max_cycles=params["max_cycles"],
    )


def _run_place(params: dict) -> dict:
    result = _place_one(
        params["fabric"],
        params["technology"],
        params["seed"],
        params["sweeps"],
        params["config"],
    )
    # The self-contained layout page is megabytes of SVG; the service
    # keeps results in memory, so only the measurements survive.
    result.pop("layout_html", None)
    result.pop("fit_text", None)
    return result


def _options(options: Sequence[Option], *names: str) -> tuple[Option, ...]:
    """The named options of one command's spec, in ``names`` order."""
    by_name = {option.name: option for option in options}
    return tuple(by_name[name] for name in names)


register_driver("sweep", (TECHNOLOGY,), _run_sweep)
register_driver(
    "yield",
    (CONFIG, *_options(
        YIELD_OPTIONS, "technology", "program", "width", "instances",
        "sigma", "device_yield", "seed",
    )),
    _run_yield,
)
register_driver(
    "campaign",
    _options(
        CAMPAIGN_OPTIONS, "config", "program", "width", "stride",
        "max_faults", "backend",
    ),
    _run_campaign,
)
register_driver(
    "verify",
    (
        Option("--seeds", positive_int, 8, "corpus seeds 0..N-1"),
        Option("--max-cycles", positive_int, 20_000,
               "gate-level cycles per case before giving up"),
    ),
    _run_verify,
)
register_driver(
    "profile",
    (CONFIG, *_options(
        PROFILE_OPTIONS, "program", "technology", "max_cycles",
    )),
    _run_profile,
)
register_driver(
    "place",
    (CONFIG, *_options(PLACE_OPTIONS, "fabric", "technology", "seed",
                       "sweeps")),
    _run_place,
)
