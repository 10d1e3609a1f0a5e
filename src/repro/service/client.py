"""The thin client of the advising daemon.

:class:`ServiceClient` speaks the daemon's ``/v1`` protocol over stdlib
``http.client``, one kept-alive connection per calling thread, and
translates both directions of the boundary: requests go out as their
:meth:`~repro.api.request.AdvisingRequest.to_dict` wire form, results come
back as typed :class:`~repro.api.result.AdvisingResult` objects, and
daemon-side errors resurface as the *same* :mod:`repro.service.errors`
classes the daemon raised (a full queue raises
:class:`~repro.service.errors.QueueFullError` in the submitting process).

The high-level calls mirror :class:`~repro.api.session.AdvisingSession`
deliberately::

    with ServiceClient("http://127.0.0.1:8765") as client:
        result = client.advise(request)          # submit + one blocking wait
        results = client.advise_many(requests)   # atomic batch, ordered

so moving a workload from inline advising onto the daemon is a one-line
change — and the results are bit-identical.  A round trip is two HTTP
exchanges on one socket: the submit, then a ``GET /v1/jobs/<id>?wait=``
that the daemon answers when the job settles.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.api.request import AdvisingRequest
from repro.api.result import AdvisingResult
from repro.service.errors import (
    RateLimitedError,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
    error_for_kind,
)
from repro.service.jobs import MAX_WAIT_S, TERMINAL_STATES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.report import StaticReport

#: How often :meth:`ServiceClient.stream` polls its jobs by default.
DEFAULT_POLL_INTERVAL = 0.05

#: How long (seconds) the client will sleep-and-retry rate-limited
#: submissions before giving up and re-raising, by default.
DEFAULT_RATE_LIMIT_PATIENCE = 30.0

_CONNECTION_TYPES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

#: What a kept-alive socket the daemon closed while it sat idle (its
#: handler's idle timeout) raises when the next request goes out on it.
_STALE_SOCKET_ERRORS = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


@dataclass
class JobView:
    """A client-side snapshot of one job (``GET /v1/jobs/<id>`` decoded)."""

    job_id: str
    state: str
    index: int
    label: str
    result: Optional[AdvisingResult]
    error: Optional[str]
    raw: dict

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @classmethod
    def from_raw(cls, raw: dict) -> "JobView":
        result = raw.get("result")
        return cls(
            job_id=raw["job_id"],
            state=raw["state"],
            index=raw.get("index", 0),
            label=raw.get("label", ""),
            result=AdvisingResult.from_dict(result) if result is not None else None,
            error=raw.get("error"),
            raw=raw,
        )


class ServiceClient:
    """Talks to one advising daemon.

    Each calling thread gets one persistent connection, opened on its first
    call; :meth:`close` (or leaving a ``with`` block) closes all of them.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 token: Optional[str] = None,
                 rate_limit_patience: float = DEFAULT_RATE_LIMIT_PATIENCE):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Bearer token sent as ``Authorization: Bearer <token>`` on every
        #: call; ``None`` talks to anonymous daemons.
        self.token = token
        #: Total seconds the client will spend honouring ``Retry-After``
        #: on 429 rate-limit answers before re-raising; 0 disables retries.
        self.rate_limit_patience = rate_limit_patience
        self._url = urlsplit(self.base_url)
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later call opens a new one."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Raw protocol
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (not yet connected on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            try:
                connection_type = _CONNECTION_TYPES[self._url.scheme]
                host, port = self._url.hostname, self._url.port
            except (KeyError, ValueError):
                host = None
            if not host:
                raise ServiceConnectionError(
                    f"cannot reach the advising service at {self.base_url}: "
                    f"not an http:// or https:// URL with a host"
                )
            connection = connection_type(host, port, timeout=self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def _call(self, method: str, path: str, payload: Optional[dict] = None,
              wait: float = 0.0) -> dict:
        """One exchange on this thread's connection; ``wait`` is how long
        the daemon may hold the reply, on top of the client's timeout."""
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        try:
            status, data, reply_headers = self._exchange(
                connection, method, self._url.path + path, body, headers, wait
            )
        except BaseException:
            connection.close()
            raise
        if status >= 400:
            raise self._decode_error(status, data, reply_headers)
        return json.loads(data.decode("utf-8"))

    def _exchange(self, connection, method, target, body, headers, wait):
        """Send one request and read its reply: (status, body, headers).

        A socket that already carried a reply may have been closed by the
        daemon while it sat idle; if it fails before a status line arrives,
        the request goes out once more on a new socket.  A fresh socket
        that fails raises: the daemon may have read the request.
        """
        reused = connection.sock is not None
        while True:
            if connection.sock is None:
                try:
                    connection.connect()
                except OSError as exc:
                    raise ServiceConnectionError(
                        f"cannot reach the advising service at "
                        f"{self.base_url}: {exc}"
                    ) from exc
            connection.sock.settimeout(self.timeout + wait)
            try:
                try:
                    connection.request(method, target, body=body, headers=headers)
                    response = connection.getresponse()
                except _STALE_SOCKET_ERRORS:
                    if not reused:
                        raise
                    connection.close()
                    reused = False
                    continue
                data = response.read()
            except (http.client.HTTPException, ConnectionError) as exc:
                raise ServiceConnectionError(
                    f"the advising service at {self.base_url} dropped the "
                    f"connection: {exc!r}"
                ) from exc
            except TimeoutError as exc:
                raise ServiceTimeoutError(
                    f"the advising service at {self.base_url} did not answer "
                    f"within {self.timeout + wait}s"
                ) from exc
            # A reply with `Connection: close` (every error reply) has
            # already closed the connection: the next call opens a new one.
            return response.status, data, response.headers

    @staticmethod
    def _decode_error(status: int, data: bytes, headers) -> ServiceError:
        message = f"HTTP {status}"
        kind = None
        retry_after: Optional[float] = None
        try:
            body = json.loads(data.decode("utf-8"))
            message = body.get("error", message)
            kind = body.get("error_kind")
            retry_after = body.get("retry_after")
        except Exception:  # non-JSON error body: keep the status line
            pass
        if retry_after is None:
            header = headers.get("Retry-After")
            try:
                retry_after = float(header) if header else None
            except ValueError:
                retry_after = None
        return error_for_kind(kind, status, message, retry_after=retry_after)

    def _get(self, path: str) -> dict:
        return self._call("GET", path)

    def _post(self, path: str, payload: dict) -> dict:
        """POST, sleeping on ``Retry-After`` while patience remains.

        Only rate-limit 429s are retried — queue-full 429s carry a
        different ``error_kind`` and keep raising immediately (the queue
        gives no refill estimate; backoff policy belongs to the caller).
        """
        patience = self.rate_limit_patience
        while True:
            try:
                return self._call("POST", path, payload)
            except RateLimitedError as exc:
                delay = exc.retry_after if exc.retry_after is not None else 1.0
                if patience < delay:
                    raise
                patience -= delay
                time.sleep(delay)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._get("/v1/healthz")

    def stats(self) -> dict:
        return self._get("/v1/stats")

    # ------------------------------------------------------------------
    # Submission and waiting
    # ------------------------------------------------------------------
    @staticmethod
    def _payload(request: Union[AdvisingRequest, dict]) -> dict:
        return request.to_dict() if isinstance(request, AdvisingRequest) else request

    def submit(self, request: Union[AdvisingRequest, dict]) -> str:
        """Enqueue one request; returns its job id immediately."""
        return self._post("/v1/advise", {"request": self._payload(request)})["job_id"]

    def submit_many(self, requests: Sequence[Union[AdvisingRequest, dict]]) -> List[str]:
        """Enqueue a batch atomically; returns job ids in submission order."""
        reply = self._post(
            "/v1/batch",
            {"requests": [self._payload(request) for request in requests]},
        )
        return list(reply["job_ids"])

    def job(self, job_id: str) -> JobView:
        """One snapshot of a job's state (404 -> ``UnknownJobError``)."""
        return JobView.from_raw(self._get(f"/v1/jobs/{job_id}"))

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_interval: Optional[float] = None,
    ) -> JobView:
        """Block until a job is terminal (or ``ServiceTimeoutError``).

        Each exchange asks the daemon to hold its reply until the job
        settles, for at most :data:`~repro.service.jobs.MAX_WAIT_S`; the
        client never sleeps.  ``poll_interval`` is accepted and ignored.
        """
        deadline = time.monotonic() + timeout
        while True:
            wait = min(max(deadline - time.monotonic(), 0.0), MAX_WAIT_S)
            view = JobView.from_raw(
                self._call("GET", f"/v1/jobs/{job_id}?wait={wait:.3f}", wait=wait)
            )
            if view.terminal:
                return view
            if time.monotonic() >= deadline:
                raise ServiceTimeoutError(
                    f"job {job_id} still {view.state!r} after {timeout:.1f}s"
                )

    # ------------------------------------------------------------------
    # Session-shaped conveniences
    # ------------------------------------------------------------------
    def advise(
        self,
        request: Union[AdvisingRequest, dict],
        timeout: float = 600.0,
    ) -> AdvisingResult:
        """Submit one request and wait for its typed result.

        Like :meth:`AdvisingSession.advise
        <repro.api.session.AdvisingSession.advise>`, advising failures are
        *captured*: the returned result carries ``error`` instead of this
        call raising.  Only service-level failures (unreachable daemon,
        queue full, timeout) raise.
        """
        view = self.wait(self.submit(request), timeout)
        if view.result is None:
            raise ServiceError(
                f"job {view.job_id} ended {view.state!r} without a result: "
                f"{view.error or 'unknown error'}"
            )
        return view.result

    def advise_many(
        self,
        requests: Sequence[Union[AdvisingRequest, dict]],
        timeout: float = 600.0,
    ) -> List[AdvisingResult]:
        """Submit a batch atomically; results come back in submission order.

        An empty batch returns ``[]`` without a round trip, like
        :meth:`AdvisingSession.advise_many
        <repro.api.session.AdvisingSession.advise_many>`.
        """
        if not requests:
            return []
        job_ids = self.submit_many(requests)
        results = []
        deadline = time.monotonic() + timeout
        for job_id in job_ids:
            remaining = max(deadline - time.monotonic(), 0.001)
            view = self.wait(job_id, remaining)
            if view.result is None:
                raise ServiceError(
                    f"job {view.job_id} ended {view.state!r} without a "
                    f"result: {view.error or 'unknown error'}"
                )
            results.append(view.result)
        return results

    def stream(
        self,
        requests: Sequence[Union[AdvisingRequest, dict]],
        timeout: float = 600.0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> Iterator[AdvisingResult]:
        """Yield results in *completion* order (``result.index`` keeps the
        submission position) — the remote twin of
        :meth:`AdvisingSession.stream
        <repro.api.session.AdvisingSession.stream>`.  An empty batch yields
        nothing without a round trip.
        """
        if not requests:
            return
        outstanding = self.submit_many(requests)
        deadline = time.monotonic() + timeout
        while outstanding:
            settled = []
            for job_id in outstanding:
                view = self.job(job_id)
                if not view.terminal:
                    continue
                settled.append(job_id)
                if view.result is None:
                    raise ServiceError(
                        f"job {view.job_id} ended {view.state!r} without a "
                        f"result: {view.error or 'unknown error'}"
                    )
                yield view.result
            outstanding = [job_id for job_id in outstanding
                           if job_id not in settled]
            if not outstanding:
                return
            if time.monotonic() >= deadline:
                raise ServiceTimeoutError(
                    f"{len(outstanding)} of {len(requests)} jobs still "
                    f"unfinished after {timeout:.1f}s"
                )
            time.sleep(poll_interval)

    def lint(self, request: Union[AdvisingRequest, dict]) -> "StaticReport":
        """Run the daemon-side static lint; returns the typed report.

        Synchronous — the static checker never simulates, so there is no
        job to poll.  The remote twin of :meth:`AdvisingSession.lint
        <repro.api.session.AdvisingSession.lint>`.
        """
        from repro.staticcheck.report import StaticReport

        raw = self._post("/v1/lint", {"request": self._payload(request)})
        return StaticReport.from_dict(raw)
