"""Shared serve fixtures: probe drivers, a manager, a live HTTP server.

The probe job kinds registered here keep the service tests fast and
deterministic: ``echo`` finishes in microseconds (or sleeps/fails on
demand), ``fanout`` drives :func:`repro.exec.parallel_map` with real
worker processes so trace stitching across PIDs is exercised without
running a full pipeline driver.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.cli import Option
from repro.obs import live
from repro.serve import drivers
from repro.serve.jobs import JobManager
from repro.serve.server import POLL_INTERVAL_S, ReproServer


def _run_echo(params):
    if params["sleep_s"]:
        time.sleep(params["sleep_s"])
    with obs.span("echo", value=params["value"]):
        if params["fail"]:
            raise ValueError("echo told to fail")
    return {"value": params["value"]}


def _fanout_item(index):
    import os

    with obs.span("fanout_item", index=index):
        time.sleep(0.05)
    return os.getpid()


def _run_fanout(params):
    from repro.exec import parallel_map

    pids = parallel_map(
        _fanout_item,
        range(params["items"]),
        jobs=params["jobs"],
        chunk_size=1,
        label="fanout",
    )
    return {"pids": sorted(set(pids))}


@pytest.fixture
def serve_obs():
    """Enabled obs + active live bus + probe drivers, torn down after."""
    obs.reset()
    obs.enable()
    bus = live.activate(live.LiveBus(buffer=64))
    drivers.register_driver(
        "echo",
        (
            Option("--value", int, 0),
            Option("--sleep-s", float, 0.0),
            Option("--fail", None, False),
        ),
        _run_echo,
    )
    drivers.register_driver(
        "fanout", (Option("--items", int, 8), Option("--jobs", int, 2)),
        _run_fanout,
    )
    try:
        yield bus
    finally:
        drivers.DRIVERS.pop("echo", None)
        drivers.DRIVERS.pop("fanout", None)
        live.deactivate()
        obs.disable()
        obs.reset()


@pytest.fixture
def manager(serve_obs):
    mgr = JobManager(workers=1)
    serve_obs.add_tap(mgr.tap)
    mgr.start()
    try:
        yield mgr
    finally:
        mgr.stop()
        serve_obs.remove_tap(mgr.tap)


@pytest.fixture
def server(serve_obs, manager):
    """A live ReproServer on an ephemeral port; yields its base URL."""
    srv = ReproServer(
        ("127.0.0.1", 0), manager, serve_obs, heartbeat=0.2
    )
    thread = threading.Thread(
        target=srv.serve_forever,
        kwargs={"poll_interval": POLL_INTERVAL_S},
        daemon=True,
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        srv.server_close()


# -- tiny stdlib HTTP helpers (shared by the serve tests) ------------------


def get(url, timeout=5.0):
    """(status, body_bytes, headers) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def get_json(url, timeout=5.0):
    status, body, _ = get(url, timeout=timeout)
    return status, json.loads(body)


def post_json(url, payload, timeout=5.0):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_until(predicate, timeout=10.0, interval=0.02):
    """Poll ``predicate`` until truthy; returns its final value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not met within {timeout}s")
