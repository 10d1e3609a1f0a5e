"""Bearer-token authentication and token-bucket rate limiting.

The daemon's admission gate, as HTTP middleware state: an
:class:`AuthPolicy` decides *who* a request is
(:meth:`~AuthPolicy.authenticate`, RFC 6750 ``Authorization: Bearer``)
and *whether they may submit right now* (:meth:`~AuthPolicy.check_rate`,
one lazily-created :class:`TokenBucket` per client).  The three failure
modes map onto distinct protocol answers:

- no credentials where some are required -> 401
  :class:`~repro.service.errors.AuthenticationError` (with
  ``WWW-Authenticate: Bearer``),
- a token the daemon does not know -> 403
  :class:`~repro.service.errors.AuthorizationError`,
- a known client over its budget -> 429
  :class:`~repro.service.errors.RateLimitedError` carrying the bucket's
  exact refill delay (surfaced as ``Retry-After``).

**Anonymous mode is the default**: a policy with no tokens authenticates
everyone as ``"anonymous"``, so a local daemon keeps working with zero
configuration — rate limiting still applies if configured (all anonymous
traffic shares one bucket).  Reads (job reads and waits, stats) are
authenticated but never rate limited; only submissions spend tokens, so
waiting on a job costs a client nothing.

The clock is injectable everywhere for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.service.errors import (
    AuthenticationError,
    AuthorizationError,
    RateLimitedError,
)

#: The client name unauthenticated requests act as when no tokens are
#: configured.
ANONYMOUS = "anonymous"


class TokenBucket:
    """The classic token-bucket limiter: ``rate`` tokens/s, ``burst`` deep.

    :meth:`try_acquire` is non-blocking: it either spends one token and
    returns ``0.0``, or returns how many seconds until one token will have
    refilled.  Refill is computed lazily from the elapsed time, so an idle
    bucket costs nothing.
    """

    def __init__(self, rate: float, burst: int,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> float:
        """Spend one token (returns 0.0) or the seconds until one refills."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class AuthPolicy:
    """Who may talk to the daemon, and how fast.

    ``tokens`` maps bearer tokens to client names (the names appear in
    rate-limit messages and make per-client buckets legible); an empty or
    ``None`` mapping means anonymous mode.  ``rate`` (submissions/second)
    and ``burst`` configure the per-client bucket; ``rate=None`` disables
    rate limiting entirely.
    """

    def __init__(self, tokens: Optional[Dict[str, str]] = None,
                 rate: Optional[float] = None, burst: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive (or None), got {rate}")
        if burst is not None and burst < 1:
            raise ValueError(f"burst must be >= 1 (or None), got {burst}")
        self.tokens = dict(tokens or {})
        self.rate = rate
        self.burst = burst if burst is not None else (
            max(1, int(rate)) if rate is not None else None
        )
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()

    @property
    def anonymous(self) -> bool:
        """True when no tokens are configured (everyone is ``anonymous``)."""
        return not self.tokens

    @property
    def limited(self) -> bool:
        """True when a rate limit is configured."""
        return self.rate is not None

    # ------------------------------------------------------------------
    def authenticate(self, authorization: Optional[str]) -> str:
        """The client name behind an ``Authorization`` header value.

        Raises :class:`AuthenticationError` (401) for missing/malformed
        credentials and :class:`AuthorizationError` (403) for a token the
        policy does not know.  In anonymous mode every request — with or
        without a header — is the ``anonymous`` client.
        """
        if self.anonymous:
            return ANONYMOUS
        if not authorization:
            raise AuthenticationError(
                "this daemon requires a bearer token: send "
                "'Authorization: Bearer <token>'"
            )
        scheme, _, token = authorization.partition(" ")
        token = token.strip()
        if scheme.lower() != "bearer" or not token:
            raise AuthenticationError(
                f"unsupported Authorization scheme {scheme!r}: send "
                f"'Authorization: Bearer <token>'"
            )
        client = self.tokens.get(token)
        if client is None:
            raise AuthorizationError("unrecognized bearer token")
        return client

    def check_rate(self, client: str) -> None:
        """Spend one submission token for ``client`` or raise 429.

        Raises :class:`RateLimitedError` with the bucket's refill delay in
        ``retry_after`` when the client is over budget.  No-op without a
        configured rate.
        """
        if self.rate is None:
            return
        with self._buckets_lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[client] = bucket
        wait = bucket.try_acquire()
        if wait > 0.0:
            raise RateLimitedError(
                f"client {client!r} is over its rate limit of "
                f"{self.rate}/s (burst {self.burst}); retry in "
                f"{wait:.3f}s",
                retry_after=wait,
            )

    def describe(self) -> dict:
        """The ``/v1/stats`` summary of this policy (never the tokens)."""
        return {
            "anonymous": self.anonymous,
            "clients": len(set(self.tokens.values())),
            "rate": self.rate,
            "burst": self.burst,
        }
