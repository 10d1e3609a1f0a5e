"""Unit tests of the job repository: the daemon's one job store.

``TestContract``, ``TestWait`` and ``TestEviction`` run on both kinds of
store a daemon opens: an in-memory database (no ``--store``) and a SQLite
file.  The other classes cover what only a file can promise: results that
survive a close/reopen byte-identically, crash recovery that re-queues the
interrupted backlog, a schema guard that refuses stores written by other
builds, and two handles sharing one store.
"""

import json
import re
import sqlite3
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api.schema import API_SCHEMA_VERSION
from repro.service.errors import UnknownJobError
from repro.service.jobs import JOB_STATES, TERMINAL_STATES
from repro.service import repository as repository_module
from repro.service.repository import (
    REPOSITORY_SCHEMA_VERSION,
    JobRepository,
    RepositoryStateError,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


PAYLOAD = {"kind": "advising_request", "schema_version": API_SCHEMA_VERSION}
#: A worker's result text; the repository stores and serves it as given.
OK_JSON = json.dumps({"ok": True})


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "jobs.sqlite3"


@pytest.fixture(params=["memory", "file"])
def make_repo(request, store_path):
    """Open repositories on the parametrized backend; all are closed after."""
    opened = []

    def make(**kwargs):
        path = ":memory:" if request.param == "memory" else store_path
        opened.append(JobRepository(path, **kwargs))
        return opened[-1]

    yield make
    for repository in opened:
        repository.close()


@pytest.fixture
def repo(make_repo):
    return make_repo(ttl=None)


class TestContract:
    def test_lifecycle(self, repo):
        job = repo.create(PAYLOAD, "case-a")
        assert job.state == "queued" and not job.terminal
        assert job.state in JOB_STATES
        assert job.job_id in repo and len(repo) == 1

        repo.mark_running(job.job_id)
        assert repo.get(job.job_id).state == "running"

        repo.finish(job.job_id, OK_JSON, None)
        finished = repo.get(job.job_id)
        assert finished.state == "done" and finished.terminal
        assert finished.state in TERMINAL_STATES
        assert finished.result == {"ok": True}
        counts = repo.counts
        assert counts.submitted == 1 and counts.done == 1
        assert counts.failed == 0 and counts.served == 1

    def test_error_marks_failed(self, repo):
        job = repo.create(PAYLOAD, "case-b")
        repo.mark_running(job.job_id)
        repo.finish(job.job_id, None, "boom\n  traceback")
        failed = repo.get(job.job_id)
        assert failed.state == "failed"
        assert failed.error == "boom\n  traceback"
        assert repo.counts.failed == 1
        assert repo.counts.served == 1

    def test_abort_counts_separately(self, repo):
        job = repo.create(PAYLOAD, "case-c")
        repo.abort(job.job_id, "shutting down")
        assert repo.get(job.job_id).state == "failed"
        assert repo.counts.aborted == 1 and repo.counts.failed == 0

    def test_finish_straight_from_queue(self, repo):
        # An aborted (never-run) job still gets coherent timestamps.
        job = repo.create(PAYLOAD, "case-c")
        repo.finish(job.job_id, None, "aborted")
        view = repo.view(job.job_id)
        assert view["state"] == "failed"
        assert view["waited_seconds"] is not None
        assert view["ran_seconds"] == 0.0

    def test_unknown_job(self, repo):
        with pytest.raises(UnknownJobError, match="nope"):
            repo.get("nope")
        with pytest.raises(UnknownJobError):
            repo.view("nope")
        with pytest.raises(UnknownJobError):
            repo.mark_running("nope")
        with pytest.raises(UnknownJobError):
            repo.finish("nope", "{}", None)
        with pytest.raises(UnknownJobError):
            repo.attach("nope", "primary")
        assert repo.counts.coalesced == 0

    def test_discard_reverses_create(self, repo):
        job = repo.create(PAYLOAD, "case-d")
        repo.discard(job.job_id)
        assert job.job_id not in repo
        assert repo.counts.submitted == 0
        repo.discard("never-there")  # idempotent

    def test_attach_records_coalescing(self, repo):
        primary = repo.create(PAYLOAD, "case-e")
        follower = repo.create(PAYLOAD, "case-e")
        assert repo.attach(follower.job_id, primary.job_id) is None
        assert repo.get(follower.job_id).coalesced_with == primary.job_id
        assert repo.counts.coalesced == 1
        assert repo.view(follower.job_id)["coalesced_with"] == primary.job_id

    def test_view_shape(self, repo):
        job = repo.create(PAYLOAD, "case-f", index=3)
        view = repo.view(job.job_id)
        assert list(view) == [
            "kind", "schema_version", "job_id", "state", "index", "label",
            "result", "error", "coalesced_with", "waited_seconds",
            "ran_seconds",
        ]
        assert view["kind"] == "job"
        assert view["schema_version"] == API_SCHEMA_VERSION
        assert view["job_id"] == job.job_id
        assert view["state"] == "queued"
        assert view["index"] == 3
        assert view["label"] == "case-f"
        assert view["result"] is None and view["error"] is None

    def test_job_ids_are_unique(self, repo):
        ids = {repo.create(PAYLOAD, "x").job_id for _ in range(100)}
        assert len(ids) == 100

    def test_pending_lists_only_live_jobs(self, repo):
        live = repo.create(PAYLOAD, "live")
        settled = repo.create(PAYLOAD, "settled")
        repo.finish(settled.job_id, None, None)
        assert repo.pending() == [live.job_id]


def settle_later(settle, *args, delay=0.2):
    """Run ``settle(*args)`` on another thread after ``delay`` seconds."""
    timer = threading.Timer(delay, settle, args)
    timer.start()
    return timer


class TestWait:
    """``wait`` returns a job once it settles, or as it stands at the end."""

    @pytest.fixture
    def no_recheck(self, monkeypatch):
        # Only a settle's notification can wake a waiter now.
        monkeypatch.setattr(repository_module, "SETTLE_RECHECK_S", 60.0)

    def test_terminal_job_answers_at_once(self, repo):
        job = repo.create(PAYLOAD, "case-a")
        repo.finish(job.job_id, OK_JSON, None)
        started = time.monotonic()
        assert repo.wait(job.job_id, 10.0).state == "done"
        assert time.monotonic() - started < 1.0

    def test_wait_runs_out_with_the_live_job(self, repo):
        job = repo.create(PAYLOAD, "case-a")
        started = time.monotonic()
        assert repo.wait(job.job_id, 0.3).state == "queued"
        assert 0.29 <= time.monotonic() - started < 5.0

    def test_zero_wait_is_a_plain_read(self, repo):
        job = repo.create(PAYLOAD, "case-a")
        assert repo.wait(job.job_id, 0.0).view() == repo.view(job.job_id)

    def test_unknown_job_raises_at_once(self, repo):
        with pytest.raises(UnknownJobError):
            repo.wait("nope", 10.0)

    @pytest.mark.usefixtures("no_recheck")
    def test_finish_wakes_a_waiter(self, repo):
        job = repo.create(PAYLOAD, "case-a")
        repo.mark_running(job.job_id)
        timer = settle_later(repo.finish, job.job_id, OK_JSON, None)
        started = time.monotonic()
        settled = repo.wait(job.job_id, 20.0)
        timer.join()
        assert settled.state == "done" and settled.result == {"ok": True}
        assert time.monotonic() - started < 5.0

    @pytest.mark.usefixtures("no_recheck")
    def test_abort_wakes_a_waiter(self, repo):
        job = repo.create(PAYLOAD, "case-a")
        timer = settle_later(repo.abort, job.job_id, "shutting down")
        started = time.monotonic()
        settled = repo.wait(job.job_id, 20.0)
        timer.join()
        assert settled.state == "failed" and settled.error == "shutting down"
        assert time.monotonic() - started < 5.0

    def test_settle_by_another_handle_is_seen(self, store_path):
        """A daemon sharing the store file settles without notifying this
        process; the waiter's periodic re-read sees it."""
        a = JobRepository(store_path, ttl=None)
        b = JobRepository(store_path, ttl=None)
        try:
            job = a.create(PAYLOAD, "case-a")
            timer = settle_later(b.finish, job.job_id, OK_JSON, None)
            started = time.monotonic()
            assert a.wait(job.job_id, 20.0).state == "done"
            timer.join()
            assert time.monotonic() - started < 5.0
        finally:
            a.close()
            b.close()


class TestEviction:
    def test_terminal_jobs_evicted_after_ttl(self, make_repo):
        clock = FakeClock()
        repo = make_repo(ttl=10.0, clock=clock)
        done = repo.create(PAYLOAD, "case-a")
        repo.finish(done.job_id, OK_JSON, None)
        queued = repo.create(PAYLOAD, "case-b")

        clock.advance(11.0)
        assert repo.evict() == 1
        assert done.job_id not in repo
        # Non-terminal jobs are never evicted.
        assert queued.job_id in repo
        assert repo.counts.evicted == 1

    def test_running_jobs_never_evict(self, make_repo):
        clock = FakeClock()
        repo = make_repo(ttl=60.0, clock=clock)
        running = repo.create(PAYLOAD, "running")
        repo.mark_running(running.job_id)
        clock.advance(3600.0)
        assert repo.evict() == 0
        assert repo.get(running.job_id).state == "running"

    def test_evicts_exactly_the_settled_rows(self, make_repo):
        clock = FakeClock()
        repo = make_repo(ttl=10.0, clock=clock)
        done, failed, aborted, queued, running, recovered = (
            repo.create(PAYLOAD, label).job_id
            for label in ("done", "failed", "aborted", "queued", "running",
                          "recovered")
        )
        repo.mark_running(done)
        repo.finish(done, OK_JSON, None)
        repo.mark_running(failed)
        repo.finish(failed, None, "boom")
        repo.abort(aborted, "shut down before the job ran")
        repo.mark_running(recovered)
        # A restart heals the interrupted job: running -> queued.
        assert repo.recover() == [queued, running, recovered]
        repo.mark_running(running)

        clock.advance(11.0)
        assert repo.evict() == 3
        assert repo.counts.evicted == 3
        for job_id in (done, failed, aborted):
            assert job_id not in repo
        assert len(repo) == 3
        assert repo.get(queued).state == "queued"
        assert repo.get(recovered).state == "queued"
        assert repo.get(running).state == "running"

    def test_evict_searches_the_finish_index(self, make_repo):
        # The cost of eviction, which runs on every submission, must not
        # grow with the number of settled rows (each carries its result).
        repo = make_repo(ttl=10.0, clock=FakeClock())
        statements = []
        repo._conn.set_trace_callback(statements.append)
        try:
            repo.evict()
        finally:
            repo._conn.set_trace_callback(None)
        (delete,) = [sql for sql in statements if sql.startswith("DELETE")]
        plan = repo._conn.execute(
            "EXPLAIN QUERY PLAN " + delete, (0.0,) * delete.count("?")
        ).fetchall()
        details = [row[-1] for row in plan]
        assert any(
            re.match(r"SEARCH (TABLE )?jobs USING (COVERING )?INDEX jobs_by_finish",
                     detail)
            for detail in details
        ), details

    def test_eviction_piggybacks_on_access(self, make_repo):
        clock = FakeClock()
        repo = make_repo(ttl=10.0, clock=clock)
        done = repo.create(PAYLOAD, "case-a")
        repo.finish(done.job_id, OK_JSON, None)
        clock.advance(11.0)
        with pytest.raises(UnknownJobError, match="retention"):
            repo.get(done.job_id)

    def test_get_issues_no_write(self, make_repo):
        """A read hides an expired job without deleting it, so it never
        takes SQLite's write lock."""
        clock = FakeClock()
        repo = make_repo(ttl=10.0, clock=clock)
        done = repo.create(PAYLOAD, "done")
        repo.finish(done.job_id, OK_JSON, None)
        queued = repo.create(PAYLOAD, "queued")
        clock.advance(11.0)
        statements = []
        repo._conn.set_trace_callback(statements.append)
        try:
            assert repo.get(queued.job_id).state == "queued"
            with pytest.raises(UnknownJobError, match="retention"):
                repo.get(done.job_id)
        finally:
            repo._conn.set_trace_callback(None)
        assert len(statements) == 2, statements
        assert all(sql.startswith("SELECT") for sql in statements), statements

    def test_eviction_piggybacks_on_create(self, make_repo):
        clock = FakeClock()
        repo = make_repo(ttl=60.0, clock=clock)
        old = repo.create(PAYLOAD, "old")
        repo.finish(old.job_id, None, None)
        clock.advance(61.0)
        fresh = repo.create(PAYLOAD, "fresh")
        assert old.job_id not in repo
        assert fresh.job_id in repo

    def test_ttl_none_never_evicts(self, make_repo):
        clock = FakeClock()
        repo = make_repo(ttl=None, clock=clock)
        done = repo.create(PAYLOAD, "case-a")
        repo.finish(done.job_id, OK_JSON, None)
        clock.advance(1e9)
        assert repo.evict() == 0
        assert done.job_id in repo


@contextmanager
def traced(repo):
    """The SQL statements ``repo`` issues inside the ``with`` block."""
    statements = []
    repo._conn.set_trace_callback(statements.append)
    try:
        yield statements
    finally:
        repo._conn.set_trace_callback(None)


class TestWriteTransactions:
    def test_create_evicts_and_inserts_in_one_transaction(self, make_repo):
        clock = FakeClock()
        repo = make_repo(ttl=10.0, clock=clock)
        expired = repo.create(PAYLOAD, "expired")
        repo.finish(expired.job_id, OK_JSON, None)
        clock.advance(11.0)
        with traced(repo) as statements:
            fresh = repo.create(PAYLOAD, "fresh")
        verbs = [sql.split()[0] for sql in statements]
        assert verbs.count("BEGIN") == 1, statements
        assert verbs[0] == "BEGIN" and verbs[-1] == "COMMIT", statements
        assert "DELETE" in verbs and "INSERT" in verbs, statements
        assert expired.job_id not in repo and fresh.job_id in repo
        assert repo.counts.evicted == 1

    def test_settle_reads_nothing_back(self, make_repo):
        repo = make_repo(ttl=10.0, clock=FakeClock())
        done = repo.create(PAYLOAD, "done").job_id
        aborted = repo.create(PAYLOAD, "aborted").job_id
        with traced(repo) as statements:
            assert repo.finish(done, OK_JSON, None) is None
            assert repo.abort(aborted, "shut down before the job ran") is None
        assert [sql.split()[0] for sql in statements].count("BEGIN") == 2
        assert not any(sql.startswith("SELECT") for sql in statements), statements
        assert repo.get(done).result_json == OK_JSON
        assert repo.get(aborted).result_json is None


class TestDurability:
    def test_results_survive_reopen_byte_identically(self, store_path):
        result = {"kind": "advising_result", "zeta": 1, "alpha": [2, {"b": 3}]}
        repo = JobRepository(store_path, ttl=None)
        job = repo.create(PAYLOAD, "case-a")
        repo.mark_running(job.job_id)
        repo.finish(job.job_id, json.dumps(result), None)
        before = json.dumps(repo.view(job.job_id), sort_keys=True)
        repo.close()

        reopened = JobRepository(store_path, ttl=None)
        try:
            after = json.dumps(reopened.view(job.job_id), sort_keys=True)
            assert after == before
            # Key order inside the result dict round-trips too.
            replayed = reopened.get(job.job_id).result
            assert json.dumps(replayed) == json.dumps(result)
        finally:
            reopened.close()

    def test_counters_survive_reopen(self, store_path):
        repo = JobRepository(store_path, ttl=None)
        job = repo.create(PAYLOAD, "case-a")
        repo.finish(job.job_id, OK_JSON, None)
        repo.close()
        reopened = JobRepository(store_path, ttl=None)
        try:
            counts = reopened.counts
            assert counts.submitted == 1 and counts.done == 1
        finally:
            reopened.close()

    def test_recover_requeues_running_jobs_in_order(self, store_path):
        repo = JobRepository(store_path, ttl=None)
        first = repo.create(PAYLOAD, "case-a")
        second = repo.create(PAYLOAD, "case-b")
        third = repo.create(PAYLOAD, "case-c")
        repo.mark_running(second.job_id)
        repo.finish(third.job_id, OK_JSON, None)
        repo.close()

        reopened = JobRepository(store_path, ttl=None)
        try:
            recovered = reopened.recover()
            # Submission order, interrupted 'running' job healed to queued.
            assert recovered == [first.job_id, second.job_id]
            healed = reopened.get(second.job_id)
            assert healed.state == "queued" and healed.started_at is None
            # Settled jobs are untouched.
            assert reopened.get(third.job_id).state == "done"
        finally:
            reopened.close()


class TestSchemaGuard:
    def test_repository_schema_mismatch_refuses_to_open(self, store_path):
        JobRepository(store_path).close()
        conn = sqlite3.connect(str(store_path))
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'repository_schema'",
            (str(REPOSITORY_SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(RepositoryStateError, match="repository_schema"):
            JobRepository(store_path)

    def test_api_schema_mismatch_refuses_to_open(self, store_path):
        JobRepository(store_path).close()
        conn = sqlite3.connect(str(store_path))
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'api_schema'",
            (str(API_SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(RepositoryStateError, match="api_schema"):
            JobRepository(store_path)

    @pytest.mark.parametrize("ttl", [0, -5.0])
    def test_invalid_ttl_rejected(self, store_path, ttl):
        with pytest.raises(ValueError, match="ttl"):
            JobRepository(store_path, ttl=ttl)


class TestMultiHandle:
    def test_two_handles_share_one_store(self, store_path):
        """Two open repositories (two daemons on one host) see each other."""
        a = JobRepository(store_path, ttl=None)
        b = JobRepository(store_path, ttl=None)
        try:
            job = a.create(PAYLOAD, "case-a")
            a.finish(job.job_id, OK_JSON, None)
            assert b.get(job.job_id).state == "done"
            assert b.counts.done == 1
        finally:
            a.close()
            b.close()
