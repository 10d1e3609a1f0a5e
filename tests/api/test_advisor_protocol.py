"""The shared Advisor protocol: one calling surface, two transports."""

import threading

import pytest

from repro.api.advisor import Advisor
from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.service import (
    AdvisingDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPServer,
)

CASE_ID = "rodinia/hotspot:strength_reduction"


@pytest.fixture
def make_service():
    """A running daemon + client, torn down afterwards (local copy of the
    tests/service fixture: conftests do not cross test packages)."""
    made = []

    def make():
        daemon = AdvisingDaemon(ServiceConfig(), workers=2, use_pool=False)
        daemon.start()
        server = ServiceHTTPServer(("127.0.0.1", 0), daemon)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(server.url, timeout=10.0)
        made.append((daemon, server, client))
        return client

    yield make
    for daemon, server, client in made:
        client.close()
        server.shutdown()
        server.server_close()
        daemon.shutdown(drain=False)


class TestProtocol:
    def test_inline_session_is_an_advisor(self):
        assert isinstance(AdvisingSession(), Advisor)

    def test_service_client_is_an_advisor(self):
        # Structural check only: no daemon required.
        assert isinstance(ServiceClient("http://127.0.0.1:1"), Advisor)

    def test_arbitrary_objects_are_not(self):
        class Half:
            def advise(self, request):
                return None

        assert not isinstance(Half(), Advisor)
        assert not isinstance(object(), Advisor)

    def test_exported_from_the_package_roots(self):
        import repro
        import repro.api

        assert repro.Advisor is Advisor
        assert repro.api.Advisor is Advisor


class TestPolymorphicUse:
    def test_one_function_drives_either_transport(self, make_service):
        """The protocol's point: code written against Advisor runs unchanged
        against the inline session or a remote daemon."""

        def top_optimizer(advisor: Advisor, request):
            result = advisor.advise(request)
            assert result.ok
            return result.report.advice[0].optimizer

        request = request_for_case(CASE_ID, arch_flag="sm_70")
        inline = top_optimizer(AdvisingSession(), request)
        remote = top_optimizer(make_service(), request)
        assert inline == remote

    def test_lint_matches_across_transports(self, make_service):
        request = request_for_case(CASE_ID, arch_flag="sm_70")
        inline = AdvisingSession().lint(request)
        remote = make_service().lint(request)
        assert remote.to_json() == inline.to_json()

    def test_empty_batches_match_across_transports(self):
        # The client points at nothing: an empty batch must not need a
        # round trip (the daemon itself rejects an empty POST /v1/batch).
        for advisor in (AdvisingSession(), ServiceClient("http://127.0.0.1:1")):
            assert advisor.advise_many([]) == []
            assert list(advisor.stream([])) == []

    def test_stream_matches_across_transports(self, make_service):
        requests = [
            request_for_case(CASE_ID, arch_flag="sm_70", sample_period=period)
            for period in (4, 8)
        ]
        # Keyed by submission index: both requests carry the case id as
        # their label, and completion order differs between transports.
        inline = {r.index: r.report.to_dict()
                  for r in AdvisingSession().stream(requests)}
        remote = {r.index: r.report.to_dict()
                  for r in make_service().stream(requests, timeout=120.0)}
        assert sorted(inline) == [0, 1]
        assert remote == inline
