"""The HTTP protocol and the client, over a real localhost socket."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.request import request_for_case
from repro.api.schema import API_SCHEMA_VERSION
from repro.api.session import AdvisingSession
from repro.service import ServiceConfig
from repro.service.errors import (
    QueueFullError,
    ServiceConnectionError,
    ServiceTimeoutError,
    ServiceUnavailableError,
    ServiceValidationError,
    UnknownJobError,
)

CASE_ID = "rodinia/hotspot:strength_reduction"


def hotspot_request(**knobs):
    return request_for_case(CASE_ID, arch_flag="sm_70", **knobs)


def raw_request(url, method="GET", body=None, headers=None):
    """A raw urllib round-trip returning (status, parsed-or-text body)."""
    data = body.encode("utf-8") if isinstance(body, str) else body
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        status, raw = exc.code, exc.read()
    text = raw.decode("utf-8")
    try:
        return status, json.loads(text)
    except ValueError:
        return status, text


class TestProtocol:
    def test_healthz(self, make_service):
        _, server, client = make_service()
        health = client.healthz()
        assert health["kind"] == "healthz"
        assert health["schema_version"] == API_SCHEMA_VERSION
        assert health["status"] == "ok"
        assert health["config"]["arch_flag"] == "sm_70"

    def test_advise_round_trip_is_bit_identical(self, make_service):
        _, _, client = make_service()
        request = hotspot_request()
        service_result = client.advise(request, timeout=60.0)
        inline = AdvisingSession().advise(request)
        assert service_result.ok
        assert json.dumps(service_result.report.to_dict()) == json.dumps(
            inline.report.to_dict()
        )
        # The request itself also survives the boundary byte-for-byte.
        assert json.dumps(service_result.request.to_dict()) == json.dumps(
            request.to_dict()
        )

    def test_batch_round_trip_ordered(self, make_service):
        _, _, client = make_service(workers=2)
        requests = [hotspot_request() for _ in range(3)]
        results = client.advise_many(requests, timeout=120.0)
        assert [result.index for result in results] == [0, 1, 2]
        assert all(result.ok for result in results)
        # All three ran the same deterministic workload.
        reports = {json.dumps(result.report.to_dict()) for result in results}
        assert len(reports) == 1

    def test_job_view_over_http(self, make_service):
        _, _, client = make_service()
        job_id = client.submit(hotspot_request())
        view = client.wait(job_id, timeout=60.0)
        assert view.job_id == job_id
        assert view.state == "done"
        assert view.result is not None and view.result.ok
        assert view.raw["kind"] == "job"
        assert view.raw["schema_version"] == API_SCHEMA_VERSION

    def test_stats_over_http(self, make_service):
        _, _, client = make_service()
        client.advise(hotspot_request(), timeout=60.0)
        stats = client.stats()
        assert stats["jobs_served"] == 1
        assert stats["state"] == "serving"

    @pytest.mark.parametrize("stored", [False, True], ids=["memory", "sqlite"])
    def test_stats_report_the_persistence_backend(self, make_service, tmp_path,
                                                  stored):
        store_path = str(tmp_path / "jobs.sqlite3") if stored else None
        _, _, client = make_service(store_path=store_path)
        assert client.stats()["persistence"] == {
            "backend": "sqlite" if stored else "memory",
            "path": store_path,
        }


class TestFailureModes:
    def test_malformed_envelope_is_400_without_traceback(self, make_service):
        _, server, _ = make_service()
        for payload in (
            {"request": {"kind": "advising_request"}},      # no schema_version
            {"request": {"schema_version": 1, "kind": "advising_request"}},
            {"request": {"schema_version": API_SCHEMA_VERSION, "kind": "hat"}},
            {"request": 42},
            {"wrong_key": {}},
            {"request": {"schema_version": API_SCHEMA_VERSION,
                         "kind": "advising_request", "source": "case"}},
        ):
            status, body = raw_request(
                f"{server.url}/v1/advise", "POST", json.dumps(payload)
            )
            assert status == 400, (payload, status, body)
            assert "error" in body
            assert "Traceback" not in json.dumps(body), payload

    def test_invalid_json_body_is_400(self, make_service):
        _, server, _ = make_service()
        status, body = raw_request(f"{server.url}/v1/advise", "POST", "{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_empty_body_is_400(self, make_service):
        _, server, _ = make_service()
        status, body = raw_request(f"{server.url}/v1/advise", "POST", b"")
        assert status == 400
        assert "body is required" in body["error"]

    def test_non_object_body_is_400(self, make_service):
        _, server, _ = make_service()
        status, body = raw_request(f"{server.url}/v1/advise", "POST", "[1, 2]")
        assert status == 400
        assert "JSON object" in body["error"]

    def test_unknown_job_is_404(self, make_service):
        _, server, client = make_service()
        status, body = raw_request(f"{server.url}/v1/jobs/deadbeef")
        assert status == 404
        assert "deadbeef" in body["error"]
        with pytest.raises(UnknownJobError):
            client.job("deadbeef")

    def test_unknown_path_is_404(self, make_service):
        _, server, _ = make_service()
        for path in ("/v1/nope", "/v2/advise", "/", "/v1/jobs/"):
            status, _ = raw_request(f"{server.url}{path}")
            assert status == 404, path

    def test_wrong_method_is_405(self, make_service):
        _, server, _ = make_service()
        status, body = raw_request(
            f"{server.url}/v1/advise", "PUT", json.dumps({})
        )
        assert status == 405

    def test_queue_full_is_429(self, make_service):
        gate = threading.Event()
        daemon, server, client = make_service(
            start=False, workers=1, queue_capacity=1
        )

        def gated_execute(payload, index):
            assert gate.wait(10.0)
            raise RuntimeError("unreachable in this test")

        daemon._execute = gated_execute
        daemon.start()
        # Distinct periods so nothing coalesces — backpressure needs real
        # queue entries.
        first = client.submit(hotspot_request(sample_period=2))
        # Wait for the worker to occupy itself with the first job.
        import time

        deadline = time.monotonic() + 10.0
        while daemon.store.get(first).state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.submit(hotspot_request(sample_period=4))  # fills the queue
        with pytest.raises(QueueFullError):
            client.submit(hotspot_request(sample_period=8))
        status, body = raw_request(
            f"{server.url}/v1/advise", "POST",
            json.dumps({"request": hotspot_request(sample_period=16).to_dict()}),
        )
        assert status == 429
        assert "full" in body["error"]
        gate.set()

    def test_draining_daemon_answers_503(self, make_service):
        daemon, server, client = make_service()
        daemon.shutdown()
        with pytest.raises(ServiceUnavailableError):
            client.submit(hotspot_request())
        status, body = raw_request(
            f"{server.url}/v1/advise", "POST",
            json.dumps({"request": hotspot_request().to_dict()}),
        )
        assert status == 503
        # Results of already-served jobs stay readable; health reports state.
        assert client.healthz()["state"] == "stopped"

    def test_client_validation_error_round_trips(self, make_service):
        _, _, client = make_service()
        with pytest.raises(ServiceValidationError):
            client.submit({"kind": "advising_request"})
        with pytest.raises(ServiceValidationError):
            client.submit_many([])

    def test_unreachable_daemon(self):
        from repro.service import ServiceClient

        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceConnectionError):
            client.healthz()

    def test_wait_timeout(self, make_service):
        daemon, _, client = make_service(start=False, workers=1)
        gate = threading.Event()

        def gated_execute(payload, index):
            assert gate.wait(10.0)
            raise RuntimeError("unreachable in this test")

        daemon._execute = gated_execute
        daemon.start()
        job_id = client.submit(hotspot_request())
        with pytest.raises(ServiceTimeoutError):
            client.wait(job_id, timeout=0.2, poll_interval=0.02)
        gate.set()


class TestConfigKnobs:
    def test_daemon_config_applies_to_requests(self, make_service):
        # A daemon configured for sample_period=32 runs session-default
        # requests at 32 — exactly like an inline session built that way.
        config = ServiceConfig(sample_period=32)
        _, _, client = make_service(config)
        result = client.advise(hotspot_request(), timeout=60.0)
        inline = AdvisingSession(sample_period=32).advise(hotspot_request())
        assert result.sample_period == 32
        assert json.dumps(result.report.to_dict()) == json.dumps(
            inline.report.to_dict()
        )

    def test_per_request_knobs_override_daemon_config(self, make_service):
        _, _, client = make_service()
        request = hotspot_request(sample_period=16)
        result = client.advise(request, timeout=60.0)
        inline = AdvisingSession().advise(request)
        assert result.sample_period == 16
        assert json.dumps(result.report.to_dict()) == json.dumps(
            inline.report.to_dict()
        )
