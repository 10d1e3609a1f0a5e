"""JSON-over-HTTP front end of the advising daemon.

A deliberately small, stdlib-only protocol (versioned under ``/v1/``, the
payloads versioned under :data:`~repro.api.schema.API_SCHEMA_VERSION`):

========  ==================  ==============================================
method    path                meaning
========  ==================  ==============================================
POST      ``/v1/advise``      ``{"request": <advising_request>}`` -> 202
                              ``{"job_id": ..., "state": "queued"}``
POST      ``/v1/batch``       ``{"requests": [<advising_request>, ...]}``
                              -> 202 ``{"job_ids": [...]}`` (atomic)
POST      ``/v1/lint``        ``{"request": <advising_request>}`` -> 200
                              ``static_report`` envelope (synchronous)
GET       ``/v1/jobs/<id>``   job state + the ``advising_result`` envelope;
                              ``?wait=<seconds>`` holds the reply until the
                              job settles or the wait (at most
                              :data:`~repro.service.jobs.MAX_WAIT_S`) runs out
GET       ``/v1/healthz``     liveness + daemon state + config echo
GET       ``/v1/stats``       queue depth, cache hit rate, jobs served
========  ==================  ==============================================

Envelopes are validated strictly — a request whose ``schema_version`` or
``kind`` does not match this build is a 400, never a silent misparse — and
error responses carry a one-line message, **never a traceback**, plus a
stable ``error_kind`` (429 alone is ambiguous: queue backpressure vs. rate
limiting).  Admission failures map onto status codes: 400 malformed,
401/403 auth (the :class:`~repro.service.auth.AuthPolicy` middleware;
``/v1/healthz`` stays credential-free and only POSTs spend rate-limit
tokens), 404 unknown job, 429 queue full or rate limited (the latter with
``Retry-After``), 503 draining.

The server is a :class:`ThreadingHTTPServer`: each connection gets a
handler thread, every handler funnels into the same
:class:`~repro.service.daemon.AdvisingDaemon`, whose queue and store are
thread-safe.  Connections are kept alive, so a client's submit and its
blocking wait travel over one socket and one handler thread.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs

from repro.service.auth import AuthPolicy
from repro.service.daemon import AdvisingDaemon
from repro.service.errors import (
    AuthenticationError,
    RateLimitedError,
    ServiceValidationError,
    UnknownJobError,
    kind_for_error,
    status_for_error,
)
from repro.service.jobs import MAX_WAIT_S

#: Largest request body the daemon will read, as a guard against a client
#: (or a stray process) streaming unbounded data at the service.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _non_negative(name: str, text: str, parse: Callable[[str], float]) -> float:
    """``parse(text)`` if it is a finite number >= 0, else a 400."""
    try:
        value = parse(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise ServiceValidationError(
            f"{name} must be a finite number >= 0, got {text!r}"
        )
    return value


class ServiceHTTPServer(ThreadingHTTPServer):
    """The daemon's listening socket; holds the shared ``AdvisingDaemon``."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], advising_daemon: AdvisingDaemon,
                 quiet: bool = True, auth: Optional[AuthPolicy] = None):
        self.advising_daemon = advising_daemon
        self.quiet = quiet
        #: The admission middleware; the default policy is anonymous and
        #: unlimited, so a plain local daemon needs no configuration.
        self.auth = auth if auth is not None else AuthPolicy()
        # Kept-alive connections outlive `shutdown()`, which only stops
        # accepting; `server_close()` hangs them up so that no handler
        # keeps serving a daemon that is stopping.
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, ServiceRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A client that resets or drops its connection mid-request (a kept-
        # alive socket closed while its handler waits for the next request
        # line) is routine, not a server fault: no traceback on stderr.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # its handler closed it first
                pass


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "gpa-advise-service"
    # Keep-alive: a client sends its submit and its wait over one socket,
    # and every reply carries Content-Length, so HTTP/1.1 persistent
    # connections are safe and save a TCP handshake per call.  Error
    # replies close the connection (see `_reply`) because some error paths
    # answer before draining the request body.
    protocol_version = "HTTP/1.1"
    # A reply goes out in two sends, headers then body.  With Nagle's
    # algorithm on, a kept-alive connection holds the body until the
    # client's delayed ACK of the headers (~40 ms per call on Linux).
    disable_nagle_algorithm = True
    # An idle persistent connection may not hold a handler thread forever.
    timeout = 60.0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server's casing)
        daemon = self.server.advising_daemon
        try:
            if self.path == "/v1/healthz":
                # Liveness stays credential-free: a router health-checking
                # its daemons must never need a token.
                self._reply(200, daemon.healthz())
                return
            self._authorize(spend=False)
            if self.path == "/v1/stats":
                stats = daemon.stats()
                stats["auth"] = self.server.auth.describe()
                self._reply(200, stats)
            elif self.path.startswith("/v1/jobs/"):
                job_id, _, query = self.path[len("/v1/jobs/"):].partition("?")
                wait = self._wait_seconds(query)
                if not job_id or "/" in job_id:
                    raise UnknownJobError(f"unknown job id {job_id!r}")
                self._send(200, daemon.job_view_json(job_id, wait))
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})
        except Exception as exc:
            self._reply_error(exc)

    def do_POST(self) -> None:  # noqa: N802
        daemon = self.server.advising_daemon
        try:
            # Submissions authenticate *and* spend a rate-limit token —
            # they are the expensive admissions the bucket protects.
            self._authorize(spend=True)
            body = self._read_json()
            if self.path == "/v1/advise":
                payload = self._require(body, "request")
                job_id = daemon.submit(payload)
                self._reply(202, {"job_id": job_id, "state": "queued"})
            elif self.path == "/v1/batch":
                payloads = self._require(body, "requests")
                job_ids = daemon.submit_batch(payloads)
                self._reply(
                    202,
                    {"job_ids": job_ids, "count": len(job_ids), "state": "queued"},
                )
            elif self.path == "/v1/lint":
                payload = self._require(body, "request")
                self._reply(200, daemon.lint(payload))
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})
        except Exception as exc:
            self._reply_error(exc)

    def _authorize(self, spend: bool) -> str:
        """The auth middleware: who is this, and may they do this now?"""
        policy = self.server.auth
        client = policy.authenticate(self.headers.get("Authorization"))
        if spend:
            policy.check_rate(client)
        return client

    def do_PUT(self) -> None:  # noqa: N802
        self._reply(405, {"error": "method not allowed"})

    do_DELETE = do_PUT

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _wait_seconds(query: str) -> float:
        """The ``wait`` of a job query string, clamped to ``MAX_WAIT_S``."""
        if not query:
            return 0.0
        try:
            fields = parse_qs(query, keep_blank_values=True, strict_parsing=True)
        except ValueError:
            raise ServiceValidationError(
                f"malformed query string {query!r}"
            ) from None
        unknown = sorted(set(fields) - {"wait"})
        if unknown:
            raise ServiceValidationError(
                f"unknown query parameter(s) {unknown}: a job takes only 'wait'"
            )
        if len(fields["wait"]) != 1:
            raise ServiceValidationError("'wait' may be given only once")
        return min(_non_negative("wait", fields["wait"][0], float), MAX_WAIT_S)

    def _read_json(self) -> dict:
        length = _non_negative(
            "Content-Length", self.headers.get("Content-Length") or "0", int
        )
        if length == 0:
            raise ServiceValidationError("request body is required")
        if length > MAX_BODY_BYTES:
            raise ServiceValidationError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ServiceValidationError(
                f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(body, dict):
            raise ServiceValidationError(
                f"request body must be a JSON object, got "
                f"{type(body).__name__}"
            )
        return body

    @staticmethod
    def _require(body: dict, key: str):
        try:
            return body[key]
        except KeyError:
            raise ServiceValidationError(
                f"request body is missing the {key!r} field"
            ) from None

    def _reply(self, status: int, payload: dict,
               headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, json.dumps(payload), headers)

    def _send(self, status: int, text: str,
              headers: Optional[Dict[str, str]] = None) -> None:
        """Reply with ``text``, a JSON document already encoded."""
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if status >= 400:
            # An errored request may not have had its body read (405s,
            # missing Content-Length); reusing the connection would desync
            # the stream, so close it.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    def _reply_error(self, exc: Exception) -> None:
        # One line, no traceback: internals never leak into the protocol.
        status = status_for_error(exc)
        message = str(exc) if status != 500 else f"internal error: {exc}"
        body = {"error": message, "status": status,
                "error_kind": kind_for_error(exc)}
        headers: Dict[str, str] = {}
        if isinstance(exc, AuthenticationError):
            headers["WWW-Authenticate"] = "Bearer"
        if isinstance(exc, RateLimitedError) and exc.retry_after is not None:
            # HTTP Retry-After is whole seconds; the exact (fractional)
            # delay also rides in the body for precise clients.
            headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
            body["retry_after"] = round(exc.retry_after, 6)
        try:
            self._reply(status, body, headers=headers)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # the client hung up first; nothing left to tell it

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)
