"""End-to-end HTTP surface: endpoints, exposition, traces, dedup."""

import http.client
import json

import pytest

from repro import obs
from repro.apps.yieldcli import YIELD_OPTIONS
from repro.cli import parse
from repro.serve.server import RequestHandler

from tests.obs.test_promtext import parse_prometheus
from tests.serve.conftest import get, get_json, post_json, wait_until


def _submit_and_wait(base, kind, params, timeout=30.0):
    status, job = post_json(f"{base}/jobs", {"kind": kind, "params": params})
    assert status == 202, job
    done = wait_until(
        lambda: (
            lambda j: j if j["status"] in ("done", "failed") else None
        )(get_json(f"{base}/jobs/{job['id']}")[1]),
        timeout=timeout,
    )
    return done


class TestHealthEndpoints:
    def test_healthz(self, server):
        status, body = get_json(f"{server}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_readyz_ready_then_draining(self, server, manager):
        assert get_json(f"{server}/readyz")[0] == 200
        manager.drain(timeout=1.0)
        status, body = get_json(f"{server}/readyz")
        assert status == 503
        assert body["status"] == "draining"
        status, _ = post_json(f"{server}/jobs", {"kind": "echo"})
        assert status == 503

    def test_unknown_route_404(self, server):
        assert get(f"{server}/nope")[0] == 404


class TestMetricsEndpoint:
    def test_round_trips_strict_parser(self, server):
        _submit_and_wait(server, "echo", {"value": 1})
        status, body, headers = get(f"{server}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse_prometheus(body.decode())
        assert families["repro_serve_jobs_submitted"]["samples"][
            "repro_serve_jobs_submitted"
        ] >= 1
        assert families["repro_serve_requests"]["type"] == "counter"
        assert families["repro_serve_job_wall_s"]["type"] == "summary"


class TestJobsEndpoint:
    def test_submit_poll_result_trace_report(self, server):
        done = _submit_and_wait(server, "echo", {"value": 3})
        assert done["status"] == "done"
        assert done["result"] == {"value": 3}
        assert done["queue_position"] is None
        status, trace = get_json(f"{server}/jobs/{done['id']}/trace")
        assert status == 200
        assert [e["name"] for e in trace] == ["echo"]
        assert trace[0]["args"]["trace_id"] == done["trace_id"]
        status, report = get_json(f"{server}/jobs/{done['id']}/report")
        assert status == 200
        assert report["job"]["id"] == done["id"]
        assert report["job"]["status"] == "done"
        assert report["command"] == ["serve", "echo"]

    def test_trace_stitches_multiple_worker_pids(self, server):
        done = _submit_and_wait(server, "fanout", {"items": 8, "jobs": 2})
        assert done["status"] == "done", done
        _, trace = get_json(f"{server}/jobs/{done['id']}/trace")
        assert all(
            e["args"]["trace_id"] == done["trace_id"] for e in trace
        )
        worker_pids = {
            e["pid"] for e in trace if e["name"] == "fanout_item"
        }
        assert len(worker_pids) >= 2, f"single worker pid: {worker_pids}"
        # The parent's fan-out span is stitched into the same trace.
        assert "fanout" in {e["name"] for e in trace}

    def test_back_to_back_submissions_dedup(self, server):
        status, first = post_json(
            f"{server}/jobs", {"kind": "echo", "params": {"value": 11}}
        )
        assert status == 202 and first["deduped"] is False
        status, second = post_json(
            f"{server}/jobs", {"kind": "echo", "params": {"value": 11}}
        )
        assert status == 202
        assert second["deduped"] is True
        assert second["id"] == first["id"]
        _, body, _ = get(f"{server}/metrics")
        families = parse_prometheus(body.decode())
        assert families["repro_serve_dedup_hits"]["samples"][
            "repro_serve_dedup_hits"
        ] >= 1

    def test_jobs_table_lists_submissions(self, server):
        done = _submit_and_wait(server, "echo", {"value": 21})
        status, body = get_json(f"{server}/jobs")
        assert status == 200
        assert body["stats"]["jobs"] >= 1
        assert done["id"] in {job["id"] for job in body["jobs"]}

    def test_error_statuses(self, server):
        assert get(f"{server}/jobs/job-9999")[0] == 404
        assert get(f"{server}/jobs/job-9999/trace")[0] == 404
        status, body = post_json(f"{server}/jobs", {"kind": "nonsense"})
        assert status == 400
        assert "unknown job kind" in body["error"]
        status, body = post_json(
            f"{server}/jobs", {"kind": "echo", "params": {"bogus": 1}}
        )
        assert status == 400
        status, _ = post_json(f"{server}/jobs", {"no_kind": True})
        assert status == 400

    def test_unfinished_job_trace_409(self, server):
        status, job = post_json(
            f"{server}/jobs", {"kind": "echo", "params": {"sleep_s": 0.5}}
        )
        assert status == 202
        status, _ = get_json(f"{server}/jobs/{job['id']}/trace")
        assert status == 409
        wait_until(
            lambda: get_json(f"{server}/jobs/{job['id']}")[1]["status"]
            == "done"
        )

    def test_oversized_body_413(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{server}/jobs", data=b" " * (70 * 1024)
        )
        try:
            urllib.request.urlopen(request, timeout=5)
            raise AssertionError("expected HTTP 413")
        except urllib.error.HTTPError as exc:
            assert exc.code == 413

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_bad_content_length_400_closes(self, server, length):
        host, port = server[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", length)
            conn.endheaders(b'{"kind": "echo"}')
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]
        assert response.getheader("Connection") == "close"
        assert get_json(f"{server}/healthz")[0] == 200

    def _refused_then_ready(self, server, path, body, **kwargs):
        """POST ``body`` to ``path`` on a keep-alive connection, then GET
        /readyz through the same client: a refusal must say
        ``Connection: close`` so the client reconnects instead of
        sending its next request after the unread body's bytes."""
        host, port = server[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.request("POST", path, body=body, **kwargs)
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.request("GET", "/readyz")
            ready = conn.getresponse()
            ready.read()
        finally:
            conn.close()
        assert response.getheader("Connection") == "close"
        assert ready.status == 200
        return response.status, body

    def test_chunked_body_411_closes(self, server):
        status, body = self._refused_then_ready(
            server, "/jobs", iter([b'{"kind": "nonsense"}']),
            encode_chunked=True,
        )
        assert status == 411
        assert "Content-Length" in body["error"]

    def test_oversized_body_413_closes(self, server):
        status, body = self._refused_then_ready(
            server, "/jobs", b" " * (70 * 1024)
        )
        assert status == 413
        assert "too large" in body["error"]

    def test_post_to_unknown_route_404_closes(self, server):
        status, body = self._refused_then_ready(
            server, "/nope", b'{"kind": "echo"}'
        )
        assert status == 404
        assert "/nope" in body["error"]

    def test_post_to_a_departed_client_is_quiet(self, server, monkeypatch,
                                                 capsys):
        def departed(self, status, body, content_type):
            raise BrokenPipeError

        monkeypatch.setattr(RequestHandler, "_send", departed)
        with pytest.raises(OSError):  # no response: the socket closes
            post_json(f"{server}/jobs", {"kind": "nonsense"})
        monkeypatch.undo()
        assert get_json(f"{server}/healthz")[0] == 200
        assert "Traceback" not in capsys.readouterr().err


class TestBadParams:
    @pytest.mark.parametrize("kind, params", [
        ("yield", {"instances": "abc"}),
        ("yield", {"instances": 0}),
        ("yield", {"config": "q9"}),
        ("campaign", {"backend": "bogus"}),
        ("campaign", {"max_faults": "abc"}),
    ])
    def test_bad_param_is_400_naming_it(self, server, kind, params):
        (name,) = params
        status, body = post_json(
            f"{server}/jobs", {"kind": kind, "params": params}
        )
        assert status == 400
        assert f"{kind} parameter {name!r}" in body["error"]
        assert get_json(f"{server}/healthz")[0] == 200

    def test_hex_seed_canonicalizes_like_the_cli(self, server):
        cli_seed = parse("yield", YIELD_OPTIONS, ["p1_8_2", "--seed", "0xBEEF"]).seed
        done = _submit_and_wait(
            server, "yield", {"seed": "0xBEEF", "instances": 64}
        )
        assert done["params"]["seed"] == cli_seed == 48879
        assert done["status"] == "done", done


class TestStatusPage:
    def test_page_renders_jobs(self, server):
        done = _submit_and_wait(server, "echo", {"value": 5})
        status, body, headers = get(f"{server}/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        html = body.decode()
        assert done["id"] in html
        assert '<meta http-equiv="refresh" content="2">' in html
