"""The HTTP protocol and the client, over a real localhost socket."""

import dataclasses
import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.api.request import AdvisingRequest, request_for_case
from repro.api.result import AdvisingResult
from repro.api.schema import API_SCHEMA_VERSION
from repro.api.session import AdvisingSession
from repro.service import ServiceClient, ServiceConfig, ServiceHTTPServer
from repro.service import http as http_module
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


def raw_exchange(url, target, method="GET", headers=None):
    """One request on a fresh connection, headers sent verbatim and no body:
    returns (status, body bytes)."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30.0)
    try:
        connection.putrequest(method, target)
        for name, value in (headers or {}).items():
            connection.putheader(name, value)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class CountingServer(ServiceHTTPServer):
    """A service server that counts the TCP connections it accepts."""

    def __init__(self, *args, **kwargs):
        self.accepted = 0
        super().__init__(*args, **kwargs)

    def get_request(self):
        self.accepted += 1
        return super().get_request()


@pytest.fixture
def gated_service(make_service):
    """A one-worker service whose jobs run only once their test opens the
    returned gate (every gate is opened at teardown)."""
    gates = []

    def make(**kwargs):
        daemon, server, client = make_service(start=False, workers=1, **kwargs)
        gate = threading.Event()
        gates.append(gate)
        execute = daemon._execute

        def gated_execute(payload, index):
            assert gate.wait(30.0)
            return execute(payload, index)

        daemon._execute = gated_execute
        daemon.start()
        return daemon, server, client, gate

    yield make
    for gate in gates:
        gate.set()


def wait_until(condition, what=None):
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def wait_for_state(daemon, job_id, state):
    wait_until(lambda: daemon.store.get(job_id).state == state, state)


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

    @pytest.mark.parametrize("trips", ["abc", []], ids=["text", "empty-list"])
    def test_unfingerprinted_bad_trip_count_is_400(self, make_service, trips):
        """A payload without a fingerprint is still digested on admission, so
        a trip count that cannot re-serialize is a validation error, not a
        500 from the job store."""
        from repro.api.request import AdvisingRequest
        from repro.workloads.registry import case_by_name

        _, server, _ = make_service()
        setup = case_by_name(CASE_ID).build_baseline()
        payload = AdvisingRequest(
            source="binary", cubin=setup.cubin, kernel=setup.kernel,
            config=setup.config, workload=setup.workload,
        ).to_dict()
        del payload["fingerprint"]
        payload["workload"]["loop_trip_counts"] = {"200": trips}
        for path, body in (("/v1/advise", {"request": payload}),
                           ("/v1/batch", {"requests": [payload]})):
            status, reply = raw_request(f"{server.url}{path}", "POST", json.dumps(body))
            assert status == 400, (path, reply)
            assert reply["error_kind"] == "validation", path

    def test_unknown_request_field_is_400(self, make_service):
        """A request field this build does not know is a validation error on
        both submit routes, even beside a valid stated fingerprint."""
        _, server, _ = make_service()
        payload = hotspot_request().to_dict()
        payload["cache_policy"] = "bypass"
        for path, body in (("/v1/advise", {"request": payload}),
                           ("/v1/batch", {"requests": [payload]})):
            status, reply = raw_request(f"{server.url}{path}", "POST", json.dumps(body))
            assert status == 400, (path, reply)
            assert reply["error_kind"] == "validation", path
            assert "cache_policy" in reply["error"], path

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

    @pytest.mark.parametrize("length", ["abc", "1e3", "1.5", "-5"])
    def test_malformed_content_length_is_400(self, make_service, length):
        _, server, _ = make_service()
        status, raw = raw_exchange(
            server.url, "/v1/advise", "POST",
            {"Content-Type": "application/json", "Content-Length": length},
        )
        body = json.loads(raw)
        assert status == 400, body
        assert body["error_kind"] == "validation"
        assert "Content-Length" in body["error"]

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

    def test_daemon_hanging_up_without_a_reply(self):
        from repro.service import ServiceClient

        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10.0)

            def hang_up():
                connection, _ = listener.accept()
                with connection:
                    connection.recv(65536)  # read the request, answer nothing

            thread = threading.Thread(target=hang_up, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
            with pytest.raises(ServiceConnectionError):
                client.healthz()
            thread.join(10.0)
            assert not thread.is_alive()

    def test_daemon_never_replying(self):
        from repro.service import ServiceClient

        # The kernel completes the handshake for the listening socket; no
        # one ever accepts, so the request is read by nobody.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=0.5)
            with pytest.raises(ServiceTimeoutError):
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


class TestBlockingWait:
    """``GET /v1/jobs/<id>?wait=<seconds>`` holds its reply until the job
    settles or the wait runs out."""

    def test_wait_returns_once_the_job_settles(self, gated_service):
        _, _, client, gate = gated_service()
        job_id = client.submit(hotspot_request())
        calls = []
        call = client._call

        def counted(method, path, *args, **kwargs):
            calls.append((method, path))
            return call(method, path, *args, **kwargs)

        client._call = counted
        threading.Timer(0.3, gate.set).start()
        started = time.monotonic()
        view = client.wait(job_id, timeout=60.0)
        elapsed = time.monotonic() - started
        assert view.state == "done" and view.result.ok
        assert len(calls) == 1, calls
        assert calls[0][1].startswith(f"/v1/jobs/{job_id}?wait=")
        assert 0.25 <= elapsed < 20.0, elapsed

    def test_wait_that_runs_out_returns_the_live_view(self, gated_service):
        _, server, client, _ = gated_service()
        job_id = client.submit(hotspot_request())
        started = time.monotonic()
        status, raw = raw_exchange(server.url, f"/v1/jobs/{job_id}?wait=0.5")
        elapsed = time.monotonic() - started
        assert status == 200
        assert json.loads(raw)["state"] in ("queued", "running")
        assert 0.45 <= elapsed < 10.0, elapsed

    def test_terminal_and_unknown_jobs_answer_at_once(self, make_service):
        _, server, client = make_service()
        job_id = client.submit(hotspot_request())
        client.wait(job_id, timeout=60.0)
        started = time.monotonic()
        status, raw = raw_exchange(server.url, f"/v1/jobs/{job_id}?wait=20")
        assert status == 200 and json.loads(raw)["state"] == "done"
        status, raw = raw_exchange(server.url, "/v1/jobs/deadbeef?wait=20")
        assert status == 404 and json.loads(raw)["error_kind"] == "unknown_job"
        assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize("query", [
        "wait=abc", "wait=-1", "wait=nan", "wait=inf", "wait=", "wait",
        "wait=1&wait=2", "timeout=1", "wait=1&poll=2",
    ])
    def test_bad_query_is_400(self, make_service, query):
        _, server, client = make_service()
        job_id = client.submit(hotspot_request())
        status, raw = raw_exchange(server.url, f"/v1/jobs/{job_id}?{query}")
        assert status == 400, raw
        assert json.loads(raw)["error_kind"] == "validation"

    def test_wait_above_the_cap_is_clamped(self, gated_service, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_WAIT_S", 0.3)
        _, server, client, _ = gated_service()
        job_id = client.submit(hotspot_request())
        started = time.monotonic()
        status, raw = raw_exchange(server.url, f"/v1/jobs/{job_id}?wait=1000")
        assert status == 200
        assert json.loads(raw)["state"] in ("queued", "running")
        assert time.monotonic() - started < 10.0

    def test_plain_get_bytes_are_unchanged(self, make_service):
        """Without ``wait`` the reply is the job view's JSON, as before the
        parameter existed; a wait on a settled job answers the same bytes."""
        daemon, server, client = make_service()
        job_id = client.submit(hotspot_request())
        client.wait(job_id, timeout=60.0)
        expected = json.dumps(daemon.store.view(job_id)).encode("utf-8")
        for target in (f"/v1/jobs/{job_id}", f"/v1/jobs/{job_id}?wait=0",
                       f"/v1/jobs/{job_id}?wait=5"):
            assert raw_exchange(server.url, target) == (200, expected), target

    def test_follower_waiter_wakes_when_its_primary_settles(self, gated_service):
        daemon, _, client, gate = gated_service()
        primary = client.submit(hotspot_request())
        wait_for_state(daemon, primary, "running")
        follower = client.submit(hotspot_request())
        assert client.job(follower).raw["coalesced_with"] == primary
        threading.Timer(0.3, gate.set).start()
        started = time.monotonic()
        view = client.wait(follower, timeout=60.0)
        assert view.state == "done" and view.raw["coalesced_with"] == primary
        assert time.monotonic() - started < 20.0

    def test_queued_waiter_wakes_on_abort(self, gated_service):
        daemon, server, client, gate = gated_service()
        running = client.submit(hotspot_request(sample_period=2))
        wait_for_state(daemon, running, "running")
        queued = client.submit(hotspot_request(sample_period=4))
        replies = []
        waiter = threading.Thread(target=lambda: replies.append(
            raw_exchange(server.url, f"/v1/jobs/{queued}?wait=20")))
        waiter.start()
        time.sleep(0.2)
        # The shutdown aborts the queued job, then blocks on the gated one.
        stopper = threading.Thread(target=daemon.shutdown,
                                   kwargs={"drain": False})
        stopper.start()
        waiter.join(10.0)
        assert not waiter.is_alive()
        status, raw = replies[0]
        assert status == 200 and json.loads(raw)["state"] == "failed"
        gate.set()
        stopper.join(30.0)


class TestSplicedReply:
    """``GET /v1/jobs/<id>`` places the stored result text verbatim into
    the view; the bytes equal a fresh encoding of the decoded view."""

    def test_reply_bytes_equal_the_encoded_view(self, make_service):
        daemon, server, client = make_service(start=False, workers=1)
        execute = daemon._execute
        gate = threading.Event()
        returned = {}

        def recording_execute(payload, index):
            assert gate.wait(30.0)
            request = AdvisingRequest.from_dict(payload)
            if request.sample_period == 4:
                raise RuntimeError("worker process died mid-simulation")
            outcome = execute(payload, index)
            returned[request.label] = outcome["result"]
            return outcome

        daemon._execute = recording_execute
        daemon.start()

        def labelled(label, **knobs):
            return dataclasses.replace(hotspot_request(**knobs), label=label)

        primary = client.submit(labelled("primary"))
        wait_for_state(daemon, primary, "running")
        follower = client.submit(labelled("follower"))
        died = client.submit(labelled("died", sample_period=4))
        gate.set()
        for job_id in (primary, follower, died):
            client.wait(job_id, timeout=60.0)
        odd_label = 'caf\u00e9 "result": null, "error": "x"}'
        odd = client.submit(labelled(odd_label))
        client.wait(odd, timeout=60.0)

        jobs = {job_id: daemon.store.get(job_id)
                for job_id in (primary, follower, died, odd)}
        assert jobs[follower].coalesced_with == primary
        assert jobs[died].state == "failed"
        assert "died mid-simulation" in AdvisingResult.from_dict(
            jobs[died].result).error
        assert jobs[odd].label == odd_label
        # An executed job stores exactly the text its worker returned.
        assert set(returned) == {"primary", odd_label}
        assert jobs[primary].result_json == returned["primary"]
        assert jobs[odd].result_json == returned[odd_label]
        for job_id, job in jobs.items():
            status, body = raw_exchange(server.url, f"/v1/jobs/{job_id}")
            assert status == 200
            assert body == json.dumps(json.loads(body)).encode("utf-8"), job.label
            assert body == json.dumps(job.view()).encode("utf-8"), job.label
            assert json.loads(body)["label"] == job.label


class TestConnection:
    """One kept-alive connection per client thread."""

    def test_one_thread_uses_one_connection(self, make_service):
        _, server, client = make_service(server_class=CountingServer)
        client.healthz()
        client.stats()
        result = client.advise(hotspot_request(), timeout=60.0)
        client.job(client.submit(hotspot_request()))
        assert result.ok
        assert server.accepted == 1

    def test_call_after_an_error_reply_uses_a_new_socket(self, make_service):
        _, server, client = make_service(server_class=CountingServer)
        client.healthz()
        with pytest.raises(UnknownJobError):
            client.job("deadbeef")  # answered with Connection: close
        assert client.healthz()["status"] == "ok"
        assert server.accepted == 2

    def test_idle_closed_connection_is_retried_once(self, make_service):
        class ShortIdle(http_module.ServiceRequestHandler):
            timeout = 0.2

        _, server, client = make_service(server_class=CountingServer)
        server.RequestHandlerClass = ShortIdle
        client.healthz()
        time.sleep(1.0)  # the handler drops the idle connection
        assert client.healthz()["status"] == "ok"
        assert server.accepted == 2

    def test_each_thread_has_a_connection_and_close_closes_all(self, make_service):
        _, server, client = make_service(server_class=CountingServer)
        threads = [threading.Thread(target=client.healthz) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert server.accepted == 2
        client.healthz()
        assert server.accepted == 3
        assert all(c.sock is not None for c in client._connections)
        client.close()
        assert len(client._connections) == 3
        assert all(c.sock is None for c in client._connections)
        assert client.healthz()["status"] == "ok"  # reconnects
        assert server.accepted == 4

    def test_closed_server_hangs_up_kept_alive_connections(self, make_service):
        """A stopped server must not keep serving an open connection: the
        next call finds no daemon, as a call on a new socket would."""
        _, server, client = make_service()
        client.healthz()
        server.shutdown()
        server.server_close()
        with pytest.raises(ServiceConnectionError):
            client.healthz()

    def test_a_client_reset_prints_no_handler_traceback(self, make_service, capsys):
        """A client that resets its connection mid-request is routine: the
        handler thread prints nothing and the daemon keeps serving."""
        _, server, client = make_service()
        with socket.create_connection(server.server_address[:2], timeout=10.0) as raw:
            raw.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n")
            wait_until(lambda: server._open)  # the handler waits for the rest
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        wait_until(lambda: not server._open)  # closing sent a reset
        assert capsys.readouterr().err == ""
        assert client.healthz()["status"] == "ok"

    def test_short_client_timeout_waits_out_a_long_job(self, make_service):
        daemon, server, _ = make_service(start=False, workers=1)
        execute = daemon._execute

        def slow_execute(payload, index):
            time.sleep(2.0)
            return execute(payload, index)

        daemon._execute = slow_execute
        daemon.start()
        with ServiceClient(server.url, timeout=0.5) as client:
            started = time.monotonic()
            assert client.advise(hotspot_request(), timeout=60.0).ok
            assert time.monotonic() - started >= 2.0

    def test_sequential_calls_are_not_held_by_nagle(self, make_service):
        """On a kept-alive connection a reply's body must not wait for the
        client's delayed ACK of its headers (~40 ms per call)."""
        _, _, client = make_service()
        client.healthz()
        started = time.monotonic()
        for _ in range(50):
            client.healthz()
        assert time.monotonic() - started < 1.0


class TestRetryPolicy:
    """Against a hand-written listener: what the client resends, and when."""

    @staticmethod
    def read_request(connection):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(65536)
            if not chunk:
                break
            data += chunk
        return data

    def serve(self, listener, scripts):
        """Accept one connection per script and run it; count accepts."""
        accepted = []

        def run():
            for script in scripts:
                try:
                    connection, _ = listener.accept()
                except OSError:  # timed out: no further connection came
                    return
                accepted.append(connection)
                with connection:
                    script(connection)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, accepted

    def test_fresh_socket_hang_up_is_not_retried(self):
        def hang_up(connection):
            self.read_request(connection)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(1.0)
            thread, accepted = self.serve(listener, [hang_up, hang_up])
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            with ServiceClient(url, timeout=10.0) as client:
                with pytest.raises(ServiceConnectionError):
                    client.submit(hotspot_request())
            thread.join(10.0)
            assert len(accepted) == 1  # the POST went out once

    def test_reused_socket_is_retried_at_most_once(self):
        body = b'{"status": "ok"}'
        reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"Content-Length: %d\r\n\r\n%s" % (len(body), body))

        def answer_once_then_hang_up(connection):
            self.read_request(connection)
            connection.sendall(reply)
            self.read_request(connection)

        def hang_up(connection):
            self.read_request(connection)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(1.0)
            thread, accepted = self.serve(
                listener, [answer_once_then_hang_up, hang_up, hang_up])
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            with ServiceClient(url, timeout=10.0) as client:
                assert client.healthz() == {"status": "ok"}
                with pytest.raises(ServiceConnectionError):
                    client.healthz()
            thread.join(10.0)
            assert len(accepted) == 2  # the first socket, then one retry
