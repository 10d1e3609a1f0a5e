"""The thin client of the advising daemon.

:class:`ServiceClient` speaks the daemon's ``/v1`` protocol over stdlib
``urllib`` and translates both directions of the boundary: requests go out
as their :meth:`~repro.api.request.AdvisingRequest.to_dict` wire form,
results come back as typed :class:`~repro.api.result.AdvisingResult`
objects, and daemon-side errors resurface as the *same*
:mod:`repro.service.errors` classes the daemon raised (a full queue raises
:class:`~repro.service.errors.QueueFullError` in the submitting process).

The high-level calls mirror :class:`~repro.api.session.AdvisingSession`
deliberately::

    client = ServiceClient("http://127.0.0.1:8765")
    result = client.advise(request)            # submit + poll to completion
    results = client.advise_many(requests)     # atomic batch, ordered

so moving a workload from inline advising onto the daemon is a one-line
change — and the results are bit-identical.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Union

from repro.api.request import AdvisingRequest
from repro.api.result import AdvisingResult
from repro.service.errors import (
    RateLimitedError,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
    error_for_kind,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.report import StaticReport

#: How often :meth:`ServiceClient.wait` polls a job by default.
DEFAULT_POLL_INTERVAL = 0.05

#: How long (seconds) the client will sleep-and-retry rate-limited
#: submissions before giving up and re-raising, by default.
DEFAULT_RATE_LIMIT_PATIENCE = 30.0


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
        return self.state in ("done", "failed")


class ServiceClient:
    """Talks to one advising daemon."""

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

    # ------------------------------------------------------------------
    # Raw protocol
    # ------------------------------------------------------------------
    def _call(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise self._decode_error(exc) from None
        except urllib.error.URLError as exc:
            raise ServiceConnectionError(
                f"cannot reach the advising service at {self.base_url}: "
                f"{exc.reason}"
            ) from exc
        except (http.client.HTTPException, ConnectionError) as exc:
            raise ServiceConnectionError(
                f"the advising service at {self.base_url} dropped the "
                f"connection: {exc!r}"
            ) from exc
        except TimeoutError as exc:
            raise ServiceTimeoutError(
                f"the advising service at {self.base_url} did not answer "
                f"within {self.timeout}s"
            ) from exc

    @staticmethod
    def _decode_error(exc: urllib.error.HTTPError) -> ServiceError:
        message = f"HTTP {exc.code}"
        kind = None
        retry_after: Optional[float] = None
        try:
            body = json.loads(exc.read().decode("utf-8"))
            message = body.get("error", message)
            kind = body.get("error_kind")
            retry_after = body.get("retry_after")
        except Exception:  # non-JSON error body: keep the status line
            pass
        if retry_after is None:
            header = exc.headers.get("Retry-After") if exc.headers else None
            try:
                retry_after = float(header) if header else None
            except ValueError:
                retry_after = None
        return error_for_kind(kind, exc.code, message, retry_after=retry_after)

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
    # Submission and polling
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
        raw = self._get(f"/v1/jobs/{job_id}")
        result = raw.get("result")
        return JobView(
            job_id=raw["job_id"],
            state=raw["state"],
            index=raw.get("index", 0),
            label=raw.get("label", ""),
            result=AdvisingResult.from_dict(result) if result is not None else None,
            error=raw.get("error"),
            raw=raw,
        )

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> JobView:
        """Poll a job until it is terminal (or ``ServiceTimeoutError``)."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view.terminal:
                return view
            if time.monotonic() >= deadline:
                raise ServiceTimeoutError(
                    f"job {job_id} still {view.state!r} after {timeout:.1f}s"
                )
            time.sleep(poll_interval)

    # ------------------------------------------------------------------
    # Session-shaped conveniences
    # ------------------------------------------------------------------
    def advise(
        self,
        request: Union[AdvisingRequest, dict],
        timeout: float = 600.0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> AdvisingResult:
        """Submit one request and wait for its typed result.

        Like :meth:`AdvisingSession.advise
        <repro.api.session.AdvisingSession.advise>`, advising failures are
        *captured*: the returned result carries ``error`` instead of this
        call raising.  Only service-level failures (unreachable daemon,
        queue full, timeout) raise.
        """
        view = self.wait(self.submit(request), timeout, poll_interval)
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
        poll_interval: float = DEFAULT_POLL_INTERVAL,
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
            view = self.wait(job_id, remaining, poll_interval)
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
