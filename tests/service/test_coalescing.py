"""Request coalescing: identical in-flight submissions share one simulation.

The races are made deterministic with the same gated ``_execute`` trick as
``test_daemon.py``: a worker is parked on a *blocker* request while the
test piles identical submissions into the queue, then the gate opens and
the counters tell us exactly how many simulations actually ran.
"""

import dataclasses
import json
import threading

from repro.api.request import request_for_case

from test_daemon import CASE_ID, GatedExecute, hotspot_request, wait_until


def submit_identical(daemon, count, **knobs):
    """Submit ``count`` identical requests one call at a time (as distinct
    clients would), returning the job ids in submission order."""
    return [daemon.submit(hotspot_request(**knobs).to_dict()) for _ in range(count)]


class TestCoalescing:
    def test_identical_inflight_submissions_run_once(self, make_daemon):
        daemon = make_daemon(workers=1)
        gated = GatedExecute()
        daemon._execute = gated

        blocker = daemon.submit(hotspot_request(sample_period=2).to_dict())
        assert wait_until(lambda: daemon.store.get(blocker).state == "running")

        ids = submit_identical(daemon, 8, sample_period=4)
        gated.gate.set()
        assert wait_until(
            lambda: all(daemon.store.get(job_id).terminal for job_id in ids)
        )
        # Exactly one simulation for the whole group (plus the blocker).
        assert len(gated.calls) == 2
        stats = daemon.stats()
        assert stats["jobs_executed"] == 2
        assert stats["jobs_coalesced"] == 7
        assert stats["coalescing"] == {
            "groups": 1, "attached": 7, "in_flight_keys": 0,
        }

        primary, followers = ids[0], ids[1:]
        assert daemon.store.get(primary).coalesced_with is None
        for follower in followers:
            job = daemon.store.get(follower)
            assert job.state == "done"
            assert job.coalesced_with == primary

    def test_follower_results_are_readdressed_not_shared(self, make_daemon):
        daemon = make_daemon(workers=1)
        gated = GatedExecute()
        daemon._execute = gated

        blocker = daemon.submit(hotspot_request(sample_period=2).to_dict())
        assert wait_until(lambda: daemon.store.get(blocker).state == "running")

        def labelled(label):
            return dataclasses.replace(hotspot_request(sample_period=4), label=label)

        primary_id = daemon.submit(labelled("first").to_dict())
        follower_id = daemon.submit(labelled("second").to_dict())
        gated.gate.set()
        assert wait_until(lambda: daemon.store.get(follower_id).terminal)

        primary = daemon.store.get(primary_id)
        follower = daemon.store.get(follower_id)
        # Same simulation output: everything except the address fields.
        def body(result):
            return {k: v for k, v in result.items()
                    if k not in ("index", "label", "request")}
        assert body(primary.result) == body(follower.result)
        # ...but each job keeps its own address: label and request wire form.
        assert follower.result["label"] == "second"
        assert follower.result["request"] == follower.payload
        assert follower.result["request"]["label"] == "second"
        assert primary.result["label"] == "first"

    def test_concurrent_identical_submissions_race(self, make_daemon):
        """8 genuinely concurrent identical submits -> 1 simulation."""
        daemon = make_daemon(workers=1)
        gated = GatedExecute()
        daemon._execute = gated

        blocker = daemon.submit(hotspot_request(sample_period=2).to_dict())
        assert wait_until(lambda: daemon.store.get(blocker).state == "running")

        payload = hotspot_request(sample_period=4).to_dict()
        ids, errors = [], []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait(5.0)
            try:
                ids.append(daemon.submit(dict(payload)))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not errors and len(ids) == 8

        gated.gate.set()
        assert wait_until(
            lambda: all(daemon.store.get(job_id).terminal for job_id in ids)
        )
        assert len(gated.calls) == 2  # blocker + one primary for the group
        assert daemon.stats()["jobs_coalesced"] == 7
        results = [json.dumps(daemon.store.get(job_id).result, sort_keys=True)
                   for job_id in ids]
        assert len(set(results)) == 1

    def test_settled_jobs_do_not_anchor_new_groups(self, make_daemon):
        """Coalescing is about *in-flight* work, not the result cache."""
        daemon = make_daemon(workers=1)
        gated = GatedExecute()
        gated.gate.set()
        daemon._execute = gated

        first = daemon.submit(hotspot_request(sample_period=4).to_dict())
        assert wait_until(lambda: daemon.store.get(first).terminal)
        second = daemon.submit(hotspot_request(sample_period=4).to_dict())
        assert wait_until(lambda: daemon.store.get(second).terminal)
        assert len(gated.calls) == 2
        assert daemon.store.get(second).coalesced_with is None

    def test_aborted_primary_aborts_followers(self, make_daemon):
        daemon = make_daemon(workers=1)
        gated = GatedExecute()
        daemon._execute = gated

        blocker = daemon.submit(hotspot_request(sample_period=2).to_dict())
        assert wait_until(lambda: daemon.store.get(blocker).state == "running")
        ids = submit_identical(daemon, 3, sample_period=4)

        summary = daemon.shutdown(drain=False)
        for job_id in ids:
            job = daemon.store.get(job_id)
            assert job.state == "failed" and job.error is not None
        assert summary["jobs_aborted"] >= 3


class TestCoalescingOverHTTP:
    def test_dedup_is_visible_in_stats(self, make_service):
        daemon, _server, client = make_service(workers=1)
        gated = GatedExecute()
        daemon._execute = gated

        blocker = request_for_case(CASE_ID, arch_flag="sm_70", sample_period=2)
        blocker_id = client.submit(blocker)
        assert wait_until(
            lambda: daemon.store.get(blocker_id).state == "running"
        )

        request = request_for_case(CASE_ID, arch_flag="sm_70", sample_period=4)
        ids = [client.submit(request) for _ in range(8)]
        gated.gate.set()
        views = [client.wait(job_id, timeout=30.0) for job_id in ids]
        assert all(view.state == "done" for view in views)

        stats = client.stats()
        assert stats["jobs_executed"] == 2
        assert stats["jobs_coalesced"] == 7
        assert stats["coalescing"]["groups"] == 1
        # Every coalesced job serves a result addressed to itself.
        results = {view.job_id: view.result for view in views}
        assert all(results[job_id] is not None for job_id in ids)
