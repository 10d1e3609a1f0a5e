"""Acceptance: daemon round-trips are bit-identical to inline advising.

The ISSUE 5 criterion: for every registry case, the JSON report a
:class:`ServiceClient` gets back from the daemon must equal
``AdvisingSession.advise(...)``'s report byte for byte — under the
``simulation_scope`` and ``memory_model`` knobs too, and through the real
process-pool execution path.

The full-registry sweep shares one profile cache between the daemon and the
inline session, so each launch is simulated once and replayed once — which
doubles as a service-level regression test of cache replay fidelity.
"""

import json
import threading

import pytest

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.service import (
    AdvisingDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.workloads.registry import case_names

# One whole-registry sweep plus the pool fork: keep on one xdist worker.
pytestmark = pytest.mark.xdist_group("service_acceptance")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("service-acceptance-cache"))


@pytest.fixture(scope="module")
def service(cache_dir):
    daemon = AdvisingDaemon(
        ServiceConfig(cache_dir=cache_dir), workers=2, queue_capacity=64,
        use_pool=False,
    ).start()
    server = ServiceHTTPServer(("127.0.0.1", 0), daemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with ServiceClient(server.url, timeout=30.0) as client:
        yield client
    server.shutdown()
    server.server_close()
    daemon.shutdown()


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=False)


def test_every_registry_case_is_bit_identical(service, cache_dir):
    requests = [
        request_for_case(case_id, arch_flag="sm_70")
        for case_id in case_names()
    ]
    service_results = service.advise_many(requests, timeout=900.0)

    session = AdvisingSession(cache=cache_dir)
    for request, service_result in zip(requests, service_results):
        inline_result = session.advise(request)
        assert service_result.ok, (
            f"{service_result.label}: {service_result.error}"
        )
        assert dumps(service_result.report.to_dict()) == dumps(
            inline_result.report.to_dict()
        ), service_result.label
        assert service_result.arch_flag == inline_result.arch_flag
        assert service_result.sample_period == inline_result.sample_period
        assert service_result.simulation_scope == inline_result.simulation_scope
        assert service_result.memory_model == inline_result.memory_model


@pytest.mark.parametrize(
    "case_id, knobs",
    [
        # Grid-limited launch: the cheapest case where whole-GPU measurement
        # genuinely diverges from single-wave extrapolation.
        ("rodinia/particlefilter:block_increase",
         {"simulation_scope": "whole_gpu", "sample_period": 32}),
        # The memory-bound application case the hierarchy model targets.
        ("ExaTENSOR:memory_transaction_reduction",
         {"memory_model": "hierarchy"}),
        # Both expensive knobs at once, pinned per request.
        ("rodinia/particlefilter:block_increase",
         {"simulation_scope": "whole_gpu", "memory_model": "hierarchy",
          "sample_period": 32}),
    ],
)
def test_knob_combinations_stay_bit_identical(service, case_id, knobs):
    request = request_for_case(case_id, arch_flag="sm_70", **knobs)
    service_result = service.advise(request, timeout=300.0)
    inline_result = AdvisingSession().advise(request)
    assert service_result.ok, service_result.error
    assert dumps(service_result.report.to_dict()) == dumps(
        inline_result.report.to_dict()
    )
    if "simulation_scope" in knobs:
        assert service_result.simulation_scope == knobs["simulation_scope"]
    if "memory_model" in knobs:
        assert service_result.memory_model == knobs["memory_model"]


def test_process_pool_path_is_bit_identical(tmp_path):
    """The real pool execution (worker processes, wire-form crossing)."""
    daemon = AdvisingDaemon(
        ServiceConfig(cache_dir=str(tmp_path / "cache")), workers=2,
        use_pool=True,
    ).start()
    try:
        requests = [
            request_for_case(case_id, arch_flag="sm_70")
            for case_id in (
                "rodinia/hotspot:strength_reduction",
                "rodinia/backprop:warp_balance",
            )
        ]
        job_ids = daemon.submit_batch([request.to_dict() for request in requests])
        import time

        deadline = time.monotonic() + 300.0
        while not all(daemon.store.get(job_id).terminal for job_id in job_ids):
            assert time.monotonic() < deadline, "pool jobs never finished"
            time.sleep(0.05)
        session = AdvisingSession()
        for request, job_id in zip(requests, job_ids):
            job = daemon.store.get(job_id)
            assert job.state == "done", job.error
            inline_report = session.advise(request).report.to_dict()
            assert dumps(job.result["report"]) == dumps(inline_report)
        # The shared on-disk cache saw both simulations.
        stats = daemon.stats()
        assert stats["cache"]["misses"] == 2
    finally:
        daemon.shutdown()
