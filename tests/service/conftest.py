"""Shared fixtures of the service test suite.

Daemons default to **inline** execution (worker threads, no process pool):
the pool path's correctness is covered by the dedicated acceptance tests,
and forking a fresh ProcessPoolExecutor for every unit test would dominate
the suite's runtime.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    AdvisingDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPServer,
)


@pytest.fixture
def make_daemon():
    """Factory for started daemons; everything made here is shut down."""
    created = []

    def make(config=None, *, start=True, **kwargs):
        kwargs.setdefault("use_pool", False)
        daemon = AdvisingDaemon(config or ServiceConfig(), **kwargs)
        created.append(daemon)
        if start:
            daemon.start()
        return daemon

    yield make
    for daemon in created:
        daemon.shutdown(drain=False)
        daemon.store.close()


@pytest.fixture
def make_service(make_daemon):
    """Factory for a running daemon + HTTP server + client triple; the
    clients and servers made here are closed afterwards."""
    servers = []
    clients = []

    def make(config=None, *, auth=None, token=None,
             rate_limit_patience=None, server_class=ServiceHTTPServer,
             **kwargs):
        daemon = make_daemon(config, **kwargs)
        server = server_class(("127.0.0.1", 0), daemon, auth=auth)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        client_kwargs = {"timeout": 10.0, "token": token}
        if rate_limit_patience is not None:
            client_kwargs["rate_limit_patience"] = rate_limit_patience
        clients.append(ServiceClient(server.url, **client_kwargs))
        return daemon, server, clients[-1]

    yield make
    for client in clients:
        client.close()
    for server in servers:
        server.shutdown()
        server.server_close()
