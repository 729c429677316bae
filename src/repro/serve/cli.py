"""``python -m repro serve``: flags, env knobs, and graceful shutdown.

::

    python -m repro serve --port 8097 --jobs 2
    python -m repro serve --port 0          # ephemeral port (CI)

Every flag but ``--verbose`` has a ``REPRO_SERVE_*`` environment
fallback (the flag wins; ``--help`` lists them with their defaults, and
a bad value is a usage error naming the variable).

``--jobs N`` is the **per-job process fan-out** (it becomes the
session default for :func:`repro.exec.parallel_map`, so a sweep job
spreads over N worker processes); ``--workers K`` is how many jobs
execute *concurrently* on service worker threads.

On SIGTERM/SIGINT the service stops accepting jobs (``/readyz`` flips
to 503), drains in-flight jobs for up to ``--drain-timeout`` seconds
(their ledger records flush as each completes), publishes a final
``shutdown`` SSE event, closes every stream, and exits 0.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from dataclasses import replace

from repro import cli

SERVE_OPTIONS = (
    cli.Option("--host", str, "127.0.0.1", "bind address",
               env="REPRO_SERVE_HOST"),
    cli.Option("--port", cli.number(int, low=0, high=65535), 8097,
               "bind port (0: ephemeral)", env="REPRO_SERVE_PORT"),
    replace(cli.JOBS, default=1, env="REPRO_SERVE_JOBS",
            help="per-job process fan-out"),
    cli.Option("--workers", cli.positive_int, 1, "jobs run concurrently",
               env="REPRO_SERVE_WORKERS"),
    cli.Option("--max-jobs", cli.positive_int, 256,
               "finished jobs kept", env="REPRO_SERVE_MAX_JOBS"),
    cli.Option("--heartbeat", cli.number(float, above=0), 15.0,
               "SSE keepalive (s)", env="REPRO_SERVE_HEARTBEAT"),
    cli.Option("--tick", cli.number(float, above=0), 2.0,
               "metrics delta interval (s)", env="REPRO_SERVE_TICK"),
    cli.Option("--drain-timeout", cli.number(float, low=0), 10.0,
               "shutdown drain budget (s)", env="REPRO_SERVE_DRAIN_TIMEOUT"),
    cli.Option("--verbose", None, False, "log every HTTP request"),
)


def serve_main(argv: list[str]) -> int:
    """Entry point for the ``serve`` subcommand."""
    args = cli.parse("serve", SERVE_OPTIONS, argv, __doc__)
    if isinstance(args, int):
        return args
    host, port = args.host, args.port
    drain_timeout = args.drain_timeout

    from repro import exec as _exec
    from repro import obs
    from repro.obs import live
    from repro.serve.jobs import JobManager
    from repro.serve.server import POLL_INTERVAL_S, ReproServer

    obs.enable()
    if args.jobs > 1:
        _exec.set_default_jobs(args.jobs)

    bus = live.activate()
    ticker = live.SnapshotTicker(bus, interval=args.tick)
    manager = JobManager(workers=args.workers, max_jobs=args.max_jobs)
    bus.add_tap(manager.tap)
    manager.start()
    ticker.start()

    server = ReproServer(
        (host, port), manager, bus, heartbeat=args.heartbeat,
        quiet=not args.verbose,
    )
    bound_port = server.server_address[1]
    # Parsed by CI / subprocess tests: keep this line's shape stable.
    print(f"serving on http://{host}:{bound_port}", flush=True)

    stop = threading.Event()

    def _on_signal(signum, frame):
        print(
            f"received {signal.Signals(signum).name}, draining...",
            file=sys.stderr,
            flush=True,
        )
        stop.set()

    old_term = signal.signal(signal.SIGTERM, _on_signal)
    old_int = signal.signal(signal.SIGINT, _on_signal)

    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": POLL_INTERVAL_S},
        name="repro-serve-http",
        daemon=True,
    )
    thread.start()
    try:
        stop.wait()
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)

    drained = manager.drain(timeout=drain_timeout)
    if not drained:
        print(
            f"drain timed out after {drain_timeout:.1f}s; "
            "abandoning in-flight jobs",
            file=sys.stderr,
            flush=True,
        )
    ticker.stop()
    bus.publish(
        "shutdown",
        {"drained": drained, "uptime_s": round(time.time() - server.started_ts, 1)},
    )
    bus.close_all()
    server.shutdown()
    server.server_close()
    thread.join(timeout=2.0)
    manager.stop()
    live.deactivate()
    print("shutdown complete", flush=True)
    return 0
