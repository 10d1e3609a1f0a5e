"""Restart survival: a SIGKILL'd daemon replays its results byte-identically.

The real thing, not a simulation of it: a ``gpa-advise serve`` subprocess
with ``--store``, killed with ``SIGKILL`` (no drain, no atexit, nothing),
then restarted on the same store.  Completed jobs must replay the exact
bytes they served before the crash, and the interrupted backlog must be
re-queued and finished by the restarted daemon.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api.request import request_for_case
from repro.service import ServiceClient

# Real subprocess daemons: keep the whole module on one xdist worker.
pytestmark = pytest.mark.xdist_group("service_restart")

CASE_ID = "rodinia/hotspot:strength_reduction"
#: A case whose single-wave profile takes ~0.6-0.9 s: long enough to hold
#: the daemon's single worker while a backlog queues behind it.
SLOW_CASE_ID = "rodinia/myocyte:fast_math"


def start_daemon(tmp_path, store, cache_dir, extra=()):
    """Launch ``gpa-advise serve`` and wait for its ready file."""
    ready = tmp_path / f"ready-{time.monotonic_ns()}.txt"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.advisor.cli", "serve",
         "--host", "127.0.0.1", "--port", "0", "--inline", "--workers", "1",
         "--store", str(store), "--cache-dir", str(cache_dir),
         "--ready-file", str(ready), *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            host, port, pid = ready.read_text().split()
            return process, f"http://{host}:{port}"
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited early: rc={process.returncode}")
        time.sleep(0.05)
    process.kill()
    raise RuntimeError("daemon never became ready")


def raw_job_bytes(url, job_id):
    with urllib.request.urlopen(f"{url}/v1/jobs/{job_id}", timeout=10.0) as r:
        return r.read()


def sigkill(process):
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=10.0)


def test_sigkill_restart_replays_results_byte_identically(tmp_path):
    store = tmp_path / "jobs.sqlite3"
    cache_dir = tmp_path / "cache"

    process, url = start_daemon(tmp_path, store, cache_dir)
    survivor = None
    try:
        with ServiceClient(url, timeout=10.0) as client:
            done = client.submit(request_for_case(CASE_ID, arch_flag="sm_70"))
            view = client.wait(done, timeout=120.0)
            assert view.state == "done"
            before = raw_job_bytes(url, done)

            # Park the single worker on a slow job, pile a backlog behind
            # it, and pull the plug while the backlog is still queued.
            # Distinct sample periods so nothing coalesces: the point is
            # the queue.
            client.submit(request_for_case(SLOW_CASE_ID, arch_flag="sm_70"))
            backlog = [
                client.submit(request_for_case(
                    CASE_ID, arch_flag="sm_70", sample_period=period,
                ))
                for period in (3, 5, 7)
            ]
            assert [client.job(job_id).state for job_id in backlog] == ["queued"] * 3
            sigkill(process)

        survivor, url2 = start_daemon(tmp_path, store, cache_dir)
        with ServiceClient(url2, timeout=10.0) as client2:
            # 1) The completed result replays byte for byte.
            after = raw_job_bytes(url2, done)
            assert after == before

            # 2) The interrupted backlog was recovered and runs to
            # completion.
            for job_id in backlog:
                replayed = client2.wait(job_id, timeout=120.0)
                assert replayed.state == "done", replayed.error
            stats = client2.stats()
        assert stats["jobs_recovered"] >= len(backlog)
    finally:
        for p in (process, survivor):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait(timeout=10.0)


def test_restarted_daemon_rejects_future_schema_stores(tmp_path):
    """A store stamped by another build refuses to open instead of
    replaying wire forms a strict loader would reject."""
    import sqlite3

    from repro.service.repository import JobRepository, RepositoryStateError

    store = tmp_path / "jobs.sqlite3"
    JobRepository(store).close()
    conn = sqlite3.connect(str(store))
    conn.execute("UPDATE meta SET value = '999' WHERE key = 'api_schema'")
    conn.commit()
    conn.close()
    with pytest.raises(RepositoryStateError):
        JobRepository(store)


def test_two_daemon_processes_share_one_store(tmp_path):
    """Two live daemons on one host, one --store, one --cache-dir: a job
    submitted to A is served — byte-identically — by B."""
    store = tmp_path / "jobs.sqlite3"
    cache_dir = tmp_path / "cache"

    a_process, a_url = start_daemon(tmp_path, store, cache_dir)
    b_process = None
    try:
        b_process, b_url = start_daemon(tmp_path, store, cache_dir)
        with ServiceClient(a_url, timeout=10.0) as client_a:
            job_id = client_a.submit(request_for_case(CASE_ID, arch_flag="sm_70"))
            view = client_a.wait(job_id, timeout=120.0)
        assert view.state == "done"

        assert raw_job_bytes(b_url, job_id) == raw_job_bytes(a_url, job_id)
        # Shared persistent counters: both daemons report the same store.
        with ServiceClient(b_url, timeout=10.0) as client_b:
            stats_b = client_b.stats()
        assert stats_b["jobs_done"] >= 1
    finally:
        for p in (a_process, b_process):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait(timeout=10.0)


def test_replayed_view_is_json_stable(tmp_path):
    """The replayed view round-trips through json with identical key order
    (the property byte-identity rests on)."""
    from repro.service.repository import JobRepository

    store = tmp_path / "jobs.sqlite3"
    result = {"z": 1, "a": {"nested": [3, 2, 1]}, "m": None}
    repo = JobRepository(store, ttl=None)
    job = repo.create({"kind": "advising_request"}, "case")
    repo.finish(job.job_id, json.dumps(result), None)
    first = json.dumps(repo.view(job.job_id))
    repo.close()

    reopened = JobRepository(store, ttl=None)
    try:
        assert json.dumps(reopened.view(job.job_id)) == first
    finally:
        reopened.close()
