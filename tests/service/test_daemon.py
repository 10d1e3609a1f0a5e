"""Daemon lifecycle and failure-mode tests (inline execution mode).

Timing-sensitive scenarios (backpressure, drain) are made deterministic by
replacing ``AdvisingDaemon._execute`` with a gate the test controls, so a
worker can be held "busy" for exactly as long as the scenario needs.
"""

import json
import threading
import time

import pytest

from repro.api.request import AdvisingRequest, request_for_case
from repro.api.result import AdvisingResult
from repro.api.schema import API_SCHEMA_VERSION
from repro.api.session import AdvisingSession
from repro.service import ServiceConfig
from repro.service.errors import (
    QueueFullError,
    ServiceError,
    ServiceUnavailableError,
    ServiceValidationError,
    UnknownJobError,
)

CASE_ID = "rodinia/hotspot:strength_reduction"


def hotspot_request(**knobs):
    return request_for_case(CASE_ID, arch_flag="sm_70", **knobs)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def fake_result_payload(request: AdvisingRequest, index: int = 0,
                        error=None) -> dict:
    return AdvisingResult(
        request=request, index=index, label=request.describe(),
        arch_flag="sm_70", sample_period=8, error=error,
    ).to_dict()


class GatedExecute:
    """An ``_execute`` stand-in that blocks until the test releases it."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = []

    def __call__(self, payload, index):
        self.calls.append(index)
        assert self.gate.wait(10.0), "test never released the execute gate"
        return {
            "result": fake_result_payload(
                AdvisingRequest.from_dict(payload), index
            ),
            "cache_hits": 0,
            "cache_misses": 0,
        }


class TestRoundTrip:
    def test_daemon_result_is_bit_identical_to_inline_advise(self, make_daemon):
        daemon = make_daemon()
        request = hotspot_request()
        job_id = daemon.submit(request.to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        job = daemon.store.get(job_id)
        assert job.state == "done"

        inline = AdvisingSession().advise(request)
        daemon_result = AdvisingResult.from_dict(job.result)
        assert daemon_result.ok
        assert json.dumps(daemon_result.report.to_dict()) == json.dumps(
            inline.report.to_dict()
        )
        assert daemon_result.arch_flag == inline.arch_flag
        assert daemon_result.sample_period == inline.sample_period
        assert daemon_result.simulation_scope == inline.simulation_scope
        assert daemon_result.memory_model == inline.memory_model

    def test_batch_keeps_submission_indices(self, make_daemon):
        daemon = make_daemon()
        payloads = [hotspot_request().to_dict() for _ in range(3)]
        job_ids = daemon.submit_batch(payloads)
        assert len(job_ids) == 3
        assert wait_until(
            lambda: all(daemon.store.get(job_id).terminal for job_id in job_ids)
        )
        for position, job_id in enumerate(job_ids):
            job = daemon.store.get(job_id)
            assert job.index == position
            assert job.result["index"] == position

    def test_stats_counters(self, make_daemon):
        daemon = make_daemon()
        job_id = daemon.submit(hotspot_request().to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        stats = daemon.stats()
        assert stats["kind"] == "service_stats"
        assert stats["schema_version"] == API_SCHEMA_VERSION
        assert stats["state"] == "serving"
        assert stats["jobs_submitted"] == 1
        assert stats["jobs_served"] == 1
        assert stats["jobs_failed"] == 0
        assert stats["queue_depth"] == 0
        assert stats["cache"] is None  # no cache configured

    def test_stats_evict_expired_jobs_before_counting(self, make_daemon):
        daemon = make_daemon(job_ttl=60.0)
        daemon._execute = GatedExecute()
        daemon._execute.gate.set()
        now = [time.time()]
        daemon.store._clock = lambda: now[0]
        job_id = daemon.submit(hotspot_request().to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        assert daemon.stats()["jobs_stored"] == 1
        now[0] += 61.0
        stats = daemon.stats()
        assert (stats["jobs_stored"], stats["jobs_evicted"]) == (0, 1)

    def test_healthz_echoes_config(self, make_daemon):
        config = ServiceConfig(arch_flag="sm_80", sample_period=16)
        daemon = make_daemon(config)
        health = daemon.healthz()
        assert health["status"] == "ok"
        assert health["state"] == "serving"
        assert health["config"]["arch_flag"] == "sm_80"
        assert health["config"]["sample_period"] == 16


class TestValidation:
    def test_malformed_envelope_rejected_at_submit(self, make_daemon):
        daemon = make_daemon()
        with pytest.raises(ServiceValidationError):
            daemon.submit({"kind": "advising_request"})  # no schema_version
        with pytest.raises(ServiceValidationError):
            daemon.submit({"schema_version": 999, "kind": "advising_request"})
        with pytest.raises(ServiceValidationError):
            daemon.submit("not a dict")
        assert daemon.store.counts.submitted == 0

    def test_batch_rejects_on_first_bad_request(self, make_daemon):
        daemon = make_daemon()
        good = hotspot_request().to_dict()
        with pytest.raises(ServiceValidationError) as excinfo:
            daemon.submit_batch([good, {"bad": "envelope"}])
        assert "request 1" in str(excinfo.value)
        # Atomic: the good request was not admitted either.
        assert daemon.store.counts.submitted == 0
        assert daemon.queue.depth == 0

    def test_empty_batch_rejected(self, make_daemon):
        daemon = make_daemon()
        with pytest.raises(ServiceValidationError):
            daemon.submit_batch([])

    def test_bad_worker_count(self):
        from repro.service import AdvisingDaemon

        with pytest.raises(ServiceValidationError):
            AdvisingDaemon(workers=0)

    def test_bad_config(self):
        with pytest.raises(ServiceValidationError):
            ServiceConfig(arch_flag="sm_999")
        with pytest.raises(ServiceValidationError):
            ServiceConfig(sample_period=0)
        with pytest.raises(ServiceValidationError):
            ServiceConfig(simulation_scope="half_wave")
        with pytest.raises(ServiceValidationError):
            ServiceConfig(memory_model="quantum")
        with pytest.raises(ServiceValidationError):
            ServiceConfig(optimizer_names=("NoSuchOptimizer",))
        with pytest.raises(ServiceValidationError):
            ServiceConfig(optimizer_names=())


class TestSharedWorker:
    def test_inline_daemons_own_their_sessions(self, make_daemon):
        """Equal configs, separate sessions: the per-process worker cache
        would make two daemons serialize one session under two locks and
        mix their cache stats."""
        first, second = make_daemon(), make_daemon()
        assert first.config == second.config
        assert first._session is not None
        assert first._session is not second._session

    def test_pool_dispatch_looks_up_the_worker_at_call_time(self, make_daemon,
                                                            monkeypatch):
        from concurrent.futures import Future

        from repro.service import daemon as daemon_module

        class ImmediateExecutor:
            """Runs each submission at once, in this process."""

            def submit(self, function, *args):
                future = Future()
                future.set_result(function(*args))
                return future

        calls = []

        def recording_worker(config, payload, index):
            calls.append((config, payload, index))
            return {"result": None, "cache_hits": 1, "cache_misses": 0}

        monkeypatch.setattr(daemon_module, "_service_advise", recording_worker)
        daemon = make_daemon(start=False)
        daemon._executor = ImmediateExecutor()
        payload = hotspot_request().to_dict()
        try:
            outcome = daemon._execute(payload, 3)
        finally:
            daemon._executor = None
        assert calls == [(daemon.config.primitives(), payload, 3)]
        assert outcome["cache_hits"] == 1


class TestBackpressure:
    def test_queue_full_rejection_and_recovery(self, make_daemon):
        gate = GatedExecute()
        daemon = make_daemon(start=False, workers=1, queue_capacity=1)
        daemon._execute = gate
        daemon.start()

        # Distinct sample periods keep the requests from coalescing — this
        # test is about queue capacity, not dedup.
        first = daemon.submit(hotspot_request(sample_period=2).to_dict())
        # The single worker picks the first job up; the queue is empty again.
        assert wait_until(lambda: daemon.store.get(first).state == "running")
        second = daemon.submit(hotspot_request(sample_period=4).to_dict())
        with pytest.raises(QueueFullError) as excinfo:
            daemon.submit(hotspot_request(sample_period=8).to_dict())
        assert "full" in str(excinfo.value)
        # The rejected submission left no trace.
        assert daemon.store.counts.submitted == 2

        gate.gate.set()
        assert wait_until(lambda: daemon.store.get(second).terminal)
        # Capacity is available again after the drain.
        third = daemon.submit(hotspot_request(sample_period=16).to_dict())
        assert wait_until(lambda: daemon.store.get(third).terminal)


class TestWorkerCrash:
    def test_crash_marks_job_failed_with_captured_error(self, make_daemon):
        daemon = make_daemon(start=False, workers=1)

        def exploding_execute(payload, index):
            raise RuntimeError("worker process died mid-simulation")

        daemon._execute = exploding_execute
        daemon.start()
        job_id = daemon.submit(hotspot_request().to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        job = daemon.store.get(job_id)
        assert job.state == "failed"
        assert "worker process died mid-simulation" in job.error
        # Mirroring the session's pool path: a well-formed failed result
        # is synthesized, with the traceback in result.error.
        result = AdvisingResult.from_dict(job.result)
        assert not result.ok
        assert "worker process died mid-simulation" in result.error
        assert result.label == job.label
        # The worker thread survived; the daemon keeps serving.
        assert daemon.state == "serving"

    def test_crash_of_a_profile_request_reports_the_profiles_knobs(
        self, make_daemon, toy_cubin, toy_workload
    ):
        from repro.sampling.profiler import Profiler
        from repro.sampling.sample import LaunchConfig

        # A tiny grid-limited launch keeps the whole-GPU collection cheap.
        profiled = Profiler(
            sample_period=32, simulation_scope="whole_gpu", memory_model="hierarchy"
        ).profile(toy_cubin, "toy_kernel", LaunchConfig(2, 64), toy_workload)
        request = AdvisingRequest(
            source="profile", profile=profiled.profile, cubin=toy_cubin
        )
        succeeded = AdvisingSession().advise(request)
        assert succeeded.ok
        assert (succeeded.simulation_scope, succeeded.memory_model) == (
            "whole_gpu", "hierarchy",
        )

        daemon = make_daemon(start=False, workers=1)  # single_wave + flat

        def exploding_execute(payload, index):
            raise RuntimeError("worker process died mid-analysis")

        daemon._execute = exploding_execute
        daemon.start()
        job_id = daemon.submit(request.to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        failed = AdvisingResult.from_dict(daemon.store.get(job_id).result)
        assert not failed.ok
        # A failure reports the knobs a success would have reported.
        assert (failed.simulation_scope, failed.memory_model) == (
            "whole_gpu", "hierarchy",
        )
        assert (failed.arch_flag, failed.sample_period) == (
            succeeded.arch_flag, succeeded.sample_period,
        )

    def test_advising_failure_is_captured_not_raised(self, make_daemon):
        daemon = make_daemon()
        # The envelope is valid, but the case does not resolve at run time.
        bogus = AdvisingRequest(source="case", case_id="rodinia/nope:zilch")
        job_id = daemon.submit(bogus.to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        job = daemon.store.get(job_id)
        assert job.state == "failed"
        result = AdvisingResult.from_dict(job.result)
        assert not result.ok and "nope" in result.error


class TestShutdown:
    def test_graceful_drain_settles_queued_jobs(self, make_daemon):
        gate = GatedExecute()
        daemon = make_daemon(start=False, workers=1, queue_capacity=8)
        daemon._execute = gate
        daemon.start()
        job_ids = [daemon.submit(hotspot_request().to_dict()) for _ in range(3)]
        assert wait_until(lambda: len(gate.calls) == 1)

        done = {}
        shutdown_thread = threading.Thread(
            target=lambda: done.setdefault("summary", daemon.shutdown(drain=True))
        )
        shutdown_thread.start()
        assert wait_until(lambda: daemon.state == "draining")
        # New submissions bounce while draining.
        with pytest.raises(ServiceUnavailableError):
            daemon.submit(hotspot_request().to_dict())

        gate.gate.set()
        shutdown_thread.join(10.0)
        assert not shutdown_thread.is_alive()
        summary = done["summary"]
        assert summary["state"] == "stopped"
        assert summary["jobs_served"] == 3
        assert summary["jobs_aborted"] == 0
        for job_id in job_ids:
            assert daemon.store.get(job_id).state == "done"

    def test_no_drain_aborts_queued_jobs(self, make_daemon):
        gate = GatedExecute()
        daemon = make_daemon(start=False, workers=1, queue_capacity=8)
        daemon._execute = gate
        daemon.start()
        # Distinct periods: identical submissions would coalesce onto the
        # running job and be served by its fan-out instead of aborted.
        running, queued_a, queued_b = [
            daemon.submit(hotspot_request(sample_period=period).to_dict())
            for period in (2, 4, 8)
        ]
        assert wait_until(lambda: daemon.store.get(running).state == "running")

        done = {}
        shutdown_thread = threading.Thread(
            target=lambda: done.setdefault("summary", daemon.shutdown(drain=False))
        )
        shutdown_thread.start()
        # The in-flight job is still honoured; only queued work is aborted.
        assert wait_until(lambda: daemon.store.get(queued_b).terminal)
        gate.gate.set()
        shutdown_thread.join(10.0)
        summary = done["summary"]
        assert summary["jobs_aborted"] == 2
        # Aborted jobs were never executed: they are neither served nor
        # failed executions.
        assert summary["jobs_served"] == 1
        assert summary["jobs_failed"] == 0
        assert daemon.store.get(running).state == "done"
        for job_id in (queued_a, queued_b):
            job = daemon.store.get(job_id)
            assert job.state == "failed"
            assert "shut down before the job ran" in job.error

    def test_double_shutdown_is_idempotent(self, make_daemon):
        daemon = make_daemon()
        job_id = daemon.submit(hotspot_request().to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        first = daemon.shutdown()
        second = daemon.shutdown()
        third = daemon.shutdown(drain=False)
        assert first == second == third
        assert first["state"] == "stopped"
        assert first["jobs_served"] == 1

    def test_shutdown_before_start(self, make_daemon):
        daemon = make_daemon(start=False)
        summary = daemon.shutdown()
        assert summary["state"] == "stopped"
        with pytest.raises(ServiceError):
            daemon.start()  # a stopped daemon does not restart

    @pytest.mark.parametrize("stored", [False, True], ids=["memory", "sqlite"])
    def test_results_stay_queryable_after_shutdown(self, make_daemon, tmp_path,
                                                   stored):
        daemon = make_daemon(
            store_path=str(tmp_path / "jobs.sqlite3") if stored else None
        )
        job_id = daemon.submit(hotspot_request().to_dict())
        assert wait_until(lambda: daemon.store.get(job_id).terminal)
        daemon.shutdown()
        assert daemon.store.view(job_id)["state"] == "done"
        assert daemon.stats()["jobs_served"] == 1
        with pytest.raises(UnknownJobError):
            daemon.store.view("never-existed")
