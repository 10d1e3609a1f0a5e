"""Auth and rate limiting: the token bucket, the policy, and the HTTP gate."""

import time

import pytest

from repro.api.request import request_for_case
from repro.service.auth import ANONYMOUS, AuthPolicy, TokenBucket
from repro.service.errors import (
    AuthenticationError,
    AuthorizationError,
    RateLimitedError,
)

CASE_ID = "rodinia/hotspot:strength_reduction"


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)
        clock.advance(wait)
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(3600.0)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0)


class TestAuthPolicy:
    def test_anonymous_mode_accepts_everyone(self):
        policy = AuthPolicy()
        assert policy.anonymous and not policy.limited
        assert policy.authenticate(None) == ANONYMOUS
        assert policy.authenticate("Bearer whatever") == ANONYMOUS
        policy.check_rate(ANONYMOUS)  # no rate -> no-op

    def test_token_mode_maps_tokens_to_clients(self):
        policy = AuthPolicy(tokens={"s3cr3t": "alice", "0ther": "bob"})
        assert not policy.anonymous
        assert policy.authenticate("Bearer s3cr3t") == "alice"
        assert policy.authenticate("bearer 0ther") == "bob"  # scheme case-insensitive

    def test_missing_or_malformed_credentials_are_401(self):
        policy = AuthPolicy(tokens={"s3cr3t": "alice"})
        for header in (None, "", "Basic dXNlcg==", "Bearer", "Bearer "):
            with pytest.raises(AuthenticationError):
                policy.authenticate(header)

    def test_unknown_token_is_403(self):
        policy = AuthPolicy(tokens={"s3cr3t": "alice"})
        with pytest.raises(AuthorizationError):
            policy.authenticate("Bearer wrong")

    def test_per_client_buckets_are_independent(self):
        clock = FakeClock()
        policy = AuthPolicy(
            tokens={"a": "alice", "b": "bob"}, rate=1.0, burst=1, clock=clock,
        )
        policy.check_rate("alice")
        with pytest.raises(RateLimitedError) as excinfo:
            policy.check_rate("alice")
        assert excinfo.value.retry_after == pytest.approx(1.0)
        policy.check_rate("bob")  # bob's bucket is untouched

    def test_burst_defaults_to_int_rate(self):
        assert AuthPolicy(rate=4.0).burst == 4
        assert AuthPolicy(rate=0.5).burst == 1

    def test_describe_never_leaks_tokens(self):
        policy = AuthPolicy(tokens={"s3cr3t": "alice"}, rate=2.0)
        description = policy.describe()
        assert description == {
            "anonymous": False, "clients": 1, "rate": 2.0, "burst": 2,
        }
        assert "s3cr3t" not in str(description)


class TestAuthOverHTTP:
    def test_missing_token_is_401_with_www_authenticate(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(tokens={"s3cr3t": "alice"})
        )
        request = request_for_case(CASE_ID, arch_flag="sm_70")
        with pytest.raises(AuthenticationError):
            client.submit(request)
        with pytest.raises(AuthenticationError):
            client.stats()

    def test_wrong_token_is_403(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(tokens={"s3cr3t": "alice"}), token="wrong",
        )
        with pytest.raises(AuthorizationError):
            client.stats()

    def test_healthz_is_credential_free(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(tokens={"s3cr3t": "alice"})
        )
        assert client.healthz()["state"] == "serving"

    def test_valid_token_works_end_to_end(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(tokens={"s3cr3t": "alice"}), token="s3cr3t",
        )
        request = request_for_case(CASE_ID, arch_flag="sm_70")
        result = client.advise(request, timeout=60.0)
        assert result.ok

    def test_burst_is_429_with_retry_after(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(rate=0.001, burst=1),
            rate_limit_patience=0.0,
        )
        request = request_for_case(CASE_ID, arch_flag="sm_70")
        client.submit(request)
        with pytest.raises(RateLimitedError) as excinfo:
            client.submit(request)
        # The bucket's refill delay survives the HTTP round trip.
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 1.0

    def test_reads_are_never_rate_limited(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(rate=0.001, burst=1), rate_limit_patience=0.0,
        )
        request = request_for_case(CASE_ID, arch_flag="sm_70")
        job_id = client.submit(request)
        for _ in range(5):
            client.job(job_id)
            client.stats()

    def test_client_honors_retry_after(self, make_service):
        """A patient client sleeps through the 429 and succeeds."""
        _daemon, _server, client = make_service(
            auth=AuthPolicy(rate=2.0, burst=1), rate_limit_patience=10.0,
        )
        request = request_for_case(CASE_ID, arch_flag="sm_70")
        started = time.monotonic()
        first = client.submit(request)
        second = client.submit(request)  # retried internally after ~0.5s
        elapsed = time.monotonic() - started
        assert first and second
        assert elapsed >= 0.4

    def test_impatient_client_raises(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(rate=0.01, burst=1), rate_limit_patience=0.5,
        )
        request = request_for_case(CASE_ID, arch_flag="sm_70")
        client.submit(request)
        with pytest.raises(RateLimitedError):
            client.submit(request)

    def test_stats_describe_the_policy(self, make_service):
        _daemon, _server, client = make_service(
            auth=AuthPolicy(tokens={"s3cr3t": "alice"}, rate=5.0),
            token="s3cr3t",
        )
        assert client.stats()["auth"] == {
            "anonymous": False, "clients": 1, "rate": 5.0, "burst": 5,
        }
