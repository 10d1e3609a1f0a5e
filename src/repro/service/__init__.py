"""repro.service — the persistent concurrent advising daemon.

The paper's GPA is a one-shot profiler-advisor; this package turns it into
a long-lived service.  One :class:`~repro.service.daemon.AdvisingDaemon`
multiplexes any number of clients over a single shared configuration,
profile cache and worker pool:

* a bounded FIFO :class:`~repro.service.queue.JobQueue` applies
  backpressure (HTTP 429) instead of accepting unbounded work;
* the SQLite-backed :class:`~repro.service.repository.JobRepository`
  tracks every job through ``queued -> running -> done | failed`` and
  TTL-evicts settled results; it lives in memory by default, and with
  ``--store`` in a file, so a killed-and-restarted daemon replays
  completed results byte-identically and requeues the interrupted backlog;
* concurrent identical submissions (same
  :meth:`~repro.api.request.AdvisingRequest.fingerprint`) **coalesce**
  onto one in-flight simulation, whose result fans out to every attached
  job (dedup counters surface in ``/v1/stats``);
* per-client bearer-token auth and token-bucket rate limiting
  (:class:`~repro.service.auth.AuthPolicy`) gate admission as HTTP
  middleware — 401/403/429-with-``Retry-After`` — while anonymous,
  unlimited local use stays the zero-config default;
* a versioned JSON-over-HTTP protocol
  (:mod:`repro.service.http`: ``POST /v1/advise``, ``POST /v1/batch``,
  ``POST /v1/lint``, ``GET /v1/jobs/<id>[?wait=<seconds>]``,
  ``GET /v1/healthz``, ``GET /v1/stats``) validates every envelope against
  :data:`~repro.api.schema.API_SCHEMA_VERSION`;
* a :class:`~repro.service.client.ServiceClient` implements the same
  :class:`~repro.api.advisor.Advisor` protocol as
  :class:`~repro.api.session.AdvisingSession`
  (``advise``/``advise_many``/``stream``/``lint``), returning
  **bit-identical** reports; it keeps one connection per thread, and a
  round trip is a submit plus one blocking wait;
* shutdown is graceful: drain the queue, settle every job, persist the
  profile cache, answer 503 to latecomers — exactly what the
  ``gpa-advise serve`` SIGTERM handler triggers.

Quickstart (see ``docs/SERVICE.md`` for the full protocol)::

    from repro.service import AdvisingDaemon, ServiceConfig, ServiceHTTPServer
    daemon = AdvisingDaemon(ServiceConfig(cache_dir=".gpa-cache"), workers=4).start()
    server = ServiceHTTPServer(("127.0.0.1", 8765), daemon)
    server.serve_forever()          # or: gpa-advise serve --port 8765

    from repro.service import ServiceClient
    with ServiceClient("http://127.0.0.1:8765") as client:
        result = client.advise(request)     # == session.advise(request), bit for bit
"""

from repro.service.auth import ANONYMOUS, AuthPolicy, TokenBucket
from repro.service.client import DEFAULT_POLL_INTERVAL, JobView, ServiceClient
from repro.service.daemon import AdvisingDaemon, DAEMON_STATES, ServiceConfig
from repro.service.errors import (
    AuthenticationError,
    AuthorizationError,
    QueueFullError,
    RateLimitedError,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
    ServiceUnavailableError,
    ServiceValidationError,
    UnknownJobError,
)
from repro.service.http import ServiceHTTPServer, ServiceRequestHandler
from repro.service.jobs import JOB_STATES, TERMINAL_STATES, Job, JobCounts
from repro.service.queue import JobQueue
from repro.service.repository import (
    REPOSITORY_SCHEMA_VERSION,
    JobRepository,
    RepositoryStateError,
)

__all__ = [
    "ANONYMOUS",
    "AdvisingDaemon",
    "AuthPolicy",
    "AuthenticationError",
    "AuthorizationError",
    "DAEMON_STATES",
    "DEFAULT_POLL_INTERVAL",
    "Job",
    "JobCounts",
    "JobQueue",
    "JobRepository",
    "JobView",
    "JOB_STATES",
    "QueueFullError",
    "RateLimitedError",
    "REPOSITORY_SCHEMA_VERSION",
    "RepositoryStateError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceRequestHandler",
    "ServiceTimeoutError",
    "ServiceUnavailableError",
    "ServiceValidationError",
    "TokenBucket",
    "TERMINAL_STATES",
    "UnknownJobError",
]
