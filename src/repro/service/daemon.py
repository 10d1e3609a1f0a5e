"""The persistent concurrent advising daemon.

:class:`AdvisingDaemon` is the long-lived heart of ``repro.service``: it
owns one advising configuration (:class:`ServiceConfig`), a bounded
:class:`~repro.service.queue.JobQueue`, a TTL-evicting
:class:`~repro.service.repository.JobRepository` (a SQLite file with
``store_path``, an in-memory database without) and a worker pool, and
multiplexes any number of clients over them.  Where every one-shot
``gpa-advise`` invocation pays full process startup and tears its pool down
again, the daemon pays once and keeps the worker processes, the warm profile
cache and the benchmark registry alive across requests.

Execution shares :meth:`AdvisingSession.stream
<repro.api.session.AdvisingSession.stream>`'s pool worker: each job is
submitted to :func:`repro.api.session._pool_advise` (bound here as
``_service_advise``), which runs the wire-form request on the worker
process's cached :class:`~repro.api.session.AdvisingSession`, built from the
daemon's primitives.  Because that is the same worker, the same
serialization and the same deterministic simulator, a daemon result's
report is **bit-identical** to an inline ``AdvisingSession.advise`` report
for the same request.  The daemon keeps its own ``ProcessPoolExecutor``
because it outlives any one batch and replaces the pool when a worker dies.

Failure handling mirrors the session's: advising failures are captured
into the result (the job ends ``failed`` with the traceback), and a worker
*process* crash synthesizes a failed result instead of poisoning the
daemon — the broken pool is replaced and later jobs keep running.

Shutdown is graceful and idempotent: :meth:`AdvisingDaemon.shutdown` stops
admissions (503), drains every already-admitted job through the workers,
waits for the pool to finish its writes (which is what persists the
on-disk profile cache), and reports a summary.  A second shutdown — a
SIGTERM racing a SIGINT, say — returns the same summary without touching
anything.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.request import AdvisingRequest
from repro.api.result import AdvisingResult
from repro.api.schema import API_SCHEMA_VERSION, ApiError, ApiValidationError
from repro.api.session import (
    AdvisingSession,
    _advise_with_session,
    _pool_advise as _service_advise,
    _session_from_primitives,
    _worker_session,
    reported_knobs,
)
from repro.arch.machine import ArchitectureError, get_architecture
from repro.sampling.memory import check_memory_model
from repro.sampling.profiler import check_simulation_scope
from repro.service.errors import (
    ServiceError,
    ServiceUnavailableError,
    ServiceValidationError,
)
from repro.service.jobs import Job
from repro.service.queue import JobQueue
from repro.service.repository import JobRepository

#: Daemon lifecycle states (reported by ``/v1/healthz`` and ``/v1/stats``).
DAEMON_STATES = ("new", "serving", "draining", "stopped")


@dataclass(frozen=True)
class ServiceConfig:
    """The advising configuration a daemon serves — primitives only.

    Primitives are the whole point: the same dict crosses into every worker
    process (exactly like :meth:`AdvisingSession._pool_config
    <repro.api.session.AdvisingSession._pool_config>` payloads do), so the
    daemon can never be configured with something its workers cannot
    rebuild.
    """

    arch_flag: str = "sm_70"
    sample_period: int = 8
    simulation_scope: str = "single_wave"
    memory_model: str = "flat"
    cache_dir: Optional[str] = None
    optimizer_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        try:
            get_architecture(self.arch_flag)
        except ArchitectureError as exc:
            raise ServiceValidationError(str(exc)) from exc
        if self.sample_period <= 0:
            raise ServiceValidationError(
                f"sample_period must be positive, got {self.sample_period}"
            )
        try:
            check_simulation_scope(self.simulation_scope)
            check_memory_model(self.memory_model)
        except ValueError as exc:
            raise ServiceValidationError(str(exc)) from exc
        try:
            AdvisingSession._resolve_optimizers(self.optimizer_names)
        except ApiValidationError as exc:
            raise ServiceValidationError(str(exc)) from exc

    def primitives(self) -> dict:
        """The worker-process payload (also ``/v1/healthz``'s config echo)."""
        return {
            "arch_flag": self.arch_flag,
            "sample_period": self.sample_period,
            "simulation_scope": self.simulation_scope,
            "memory_model": self.memory_model,
            "cache_dir": self.cache_dir,
            "optimizer_names": (
                list(self.optimizer_names)
                if self.optimizer_names is not None else None
            ),
        }


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _warm_worker(config: dict) -> bool:
    """Pre-fork pool processes and pre-build their sessions at startup."""
    _worker_session(config)
    return True


# ----------------------------------------------------------------------
# The daemon proper
# ----------------------------------------------------------------------
class AdvisingDaemon:
    """A persistent, concurrent, queue-fed advising engine."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        workers: int = 2,
        queue_capacity: int = 64,
        job_ttl: Optional[float] = 900.0,
        use_pool: bool = True,
        store_path: Optional[str] = None,
    ):
        if workers < 1:
            raise ServiceValidationError(f"workers must be >= 1, got {workers}")
        self.config = config if config is not None else ServiceConfig()
        self.workers = workers
        self.use_pool = use_pool
        self.queue = JobQueue(queue_capacity)
        self.store = JobRepository(store_path or ":memory:", ttl=job_ttl)
        self.store_path = store_path
        self._state = "new"
        self._state_lock = threading.RLock()
        self._threads: List[threading.Thread] = []
        self._executor: Optional[ProcessPoolExecutor] = None
        # Inline mode's and lint's session: built from the shared builder
        # but owned by this daemon, never taken from the per-process worker
        # cache (daemons with equal configs would share it, and its cache
        # counters would mix their stats).
        self._session: Optional[AdvisingSession] = None
        self._session_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._executions = 0
        self._started_at: Optional[float] = None
        self._shutdown_summary: Optional[dict] = None
        # Request coalescing: fingerprint -> in-flight primary job id,
        # primary job id -> follower job ids, primary job id -> fingerprint
        # (for teardown).  One lock guards all three maps.
        self._coalesce_lock = threading.Lock()
        self._inflight_by_fp: Dict[str, str] = {}
        self._followers: Dict[str, List[str]] = {}
        self._fp_of: Dict[str, str] = {}
        self._coalesce_groups = 0
        self._recovered = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    def start(self) -> "AdvisingDaemon":
        """Spin up the worker pool and the worker threads (once)."""
        with self._state_lock:
            if self._state != "new":
                raise ServiceError(f"daemon already started (state {self._state!r})")
            self._state = "serving"
        self._started_at = time.monotonic()
        # Crash recovery: whatever a previous daemon admitted but never
        # finished goes back on the queue before any worker starts, so
        # restarts resume the backlog instead of forgetting it.  The
        # in-memory store recovers nothing by construction.
        recovered = self.store.recover()
        if recovered:
            self.queue.restore(recovered)
            self._recovered = len(recovered)
        if self.use_pool:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            # Fork every worker process *now*, from a quiet main thread —
            # before HTTP handler threads exist — and pre-build their
            # sessions so the first real job pays no cold start.
            warmups = [
                self._executor.submit(_warm_worker, self.config.primitives())
                for _ in range(self.workers)
            ]
            for future in warmups:
                future.result()
        else:
            self._session = _session_from_primitives(self.config.primitives())
        for number in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"gpa-service-worker-{number}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> dict:
        """Stop admissions, settle every admitted job, stop the workers.

        ``drain=True`` (the default, and what SIGTERM triggers) lets the
        workers finish everything already queued; ``drain=False`` aborts
        queued jobs (they end ``failed``) and only waits for the in-flight
        ones.  Waiting for the pool also flushes its profile-cache writes,
        so the on-disk cache is fully persisted when this returns.  The
        job store stays open, so results and :meth:`stats` stay readable;
        closing it is the caller's (``gpa-advise serve`` does, on exit).
        Idempotent: repeated calls return the first call's summary.
        """
        with self._state_lock:
            if self._state == "stopped":
                return dict(self._shutdown_summary or self._summary())
            if self._state == "new":
                self._state = "stopped"
                self._shutdown_summary = self._summary()
                return dict(self._shutdown_summary)
            if self._state == "draining":
                concurrent = True
            else:
                concurrent = False
                self._state = "draining"
            threads = list(self._threads)
        if concurrent:
            # A concurrent shutdown is already in progress; wait for it
            # (outside the state lock: workers may need it to settle).
            for thread in threads:
                thread.join(timeout)
            with self._state_lock:
                return dict(self._shutdown_summary or self._summary())

        if not drain:
            for job_id in self.queue.clear():
                # Aborting a queued primary aborts every submission that
                # coalesced onto it — none of them will ever run.
                self._abort_group(job_id, "daemon shut down before the job ran")
        # Sentinels queue *behind* the remaining work: FIFO order is the
        # drain guarantee.
        self.queue.close(len(threads))
        for thread in threads:
            thread.join(timeout)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        with self._state_lock:
            self._state = "stopped"
            self._shutdown_summary = self._summary()
        return dict(self._shutdown_summary)

    def _summary(self) -> dict:
        counts = self.store.counts
        return {
            "state": "stopped",
            "jobs_submitted": counts.submitted,
            "jobs_served": counts.served,
            "jobs_failed": counts.failed,
            "jobs_aborted": counts.aborted,
            "jobs_coalesced": counts.coalesced,
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> str:
        """Validate and enqueue one ``advising_request`` envelope."""
        return self.submit_batch([payload])[0]

    def submit_batch(self, payloads: List[dict]) -> List[str]:
        """Validate and enqueue a batch atomically (all admitted or none)."""
        if not isinstance(payloads, list) or not payloads:
            raise ServiceValidationError(
                "a batch must be a non-empty list of advising_request payloads"
            )
        requests = []
        for position, payload in enumerate(payloads):
            try:
                requests.append(AdvisingRequest.from_dict(payload))
            except (ApiError, TypeError, ValueError) as exc:
                raise ServiceValidationError(
                    f"request {position}: {exc}"
                ) from exc
        with self._state_lock:
            if self._state != "serving":
                raise ServiceUnavailableError(
                    f"daemon is {self._state}; not accepting new jobs"
                )
            # Admission happens under the state lock so a draining daemon
            # can never pick up a job admitted after its sentinels.
            jobs = [
                self.store.create(request.to_dict(), request.describe(), index)
                for index, request in enumerate(requests)
            ]
            primaries, attachments = self._plan_coalescing(jobs, requests)
            try:
                self.queue.put_many([job.job_id for job in primaries])
            except ServiceError:
                self._unplan_coalescing(jobs, attachments)
                for job in jobs:
                    self.store.discard(job.job_id)
                raise
            for job_id, primary_id in attachments:
                self.store.attach(job_id, primary_id)
        return [job.job_id for job in jobs]

    # ------------------------------------------------------------------
    # Coalescing
    # ------------------------------------------------------------------
    def _plan_coalescing(
        self, jobs: List[Job], requests: List[AdvisingRequest],
    ) -> Tuple[List[Job], List[Tuple[str, str]]]:
        """Split a validated batch into queue-bound primaries and followers.

        A submission coalesces when an identical request (same
        :meth:`~repro.api.request.AdvisingRequest.fingerprint`, which
        ignores ``label``) is already in flight.  Followers are never
        enqueued: the primary's single simulation fans its result out to
        them on completion.
        """
        primaries: List[Job] = []
        attachments: List[Tuple[str, str]] = []
        with self._coalesce_lock:
            for job, request in zip(jobs, requests):
                fingerprint = request.fingerprint()
                primary_id = self._inflight_by_fp.get(fingerprint)
                if primary_id is not None:
                    if not self._followers[primary_id]:
                        self._coalesce_groups += 1
                    self._followers[primary_id].append(job.job_id)
                    attachments.append((job.job_id, primary_id))
                else:
                    self._inflight_by_fp[fingerprint] = job.job_id
                    self._followers[job.job_id] = []
                    self._fp_of[job.job_id] = fingerprint
                    primaries.append(job)
        return primaries, attachments

    def _unplan_coalescing(
        self, jobs: List[Job], attachments: List[Tuple[str, str]],
    ) -> None:
        """Undo :meth:`_plan_coalescing` for a batch the queue rejected."""
        attached = {job_id for job_id, _ in attachments}
        with self._coalesce_lock:
            for job_id, primary_id in attachments:
                followers = self._followers.get(primary_id)
                if followers and job_id in followers:
                    followers.remove(job_id)
                    if not followers:
                        self._coalesce_groups -= 1
            for job in jobs:
                if job.job_id in attached:
                    continue
                fingerprint = self._fp_of.pop(job.job_id, None)
                if fingerprint is not None:
                    self._inflight_by_fp.pop(fingerprint, None)
                    self._followers.pop(job.job_id, None)

    def _pop_followers(self, job_id: str) -> List[str]:
        """Close a primary's coalescing group and return its followers."""
        with self._coalesce_lock:
            fingerprint = self._fp_of.pop(job_id, None)
            if fingerprint is not None:
                self._inflight_by_fp.pop(fingerprint, None)
            return self._followers.pop(job_id, [])

    def _abort_group(self, job_id: str, error: str) -> None:
        """Abort a never-run primary and every follower attached to it."""
        for settle_id in [job_id, *self._pop_followers(job_id)]:
            try:
                self.store.abort(settle_id, error)
            except ServiceError:  # pragma: no cover - evicted under us
                continue

    def _adapted_result(self, result: Optional[dict], follower: Job) -> Optional[dict]:
        """The primary's result re-addressed to a coalesced follower.

        Identical simulation, different envelope address: the follower keeps
        its own ``index``/``label`` and its own request wire form (which can
        differ from the primary's only in ``label`` — everything else is
        pinned by the shared fingerprint).
        """
        if result is None:
            return None
        adapted = dict(result)
        adapted["index"] = follower.index
        adapted["label"] = follower.label
        adapted["request"] = follower.payload
        return adapted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def job_view(self, job_id: str) -> dict:
        return self.store.view(job_id)

    def lint(self, payload: dict) -> dict:
        """Run the static lint for one ``advising_request`` envelope.

        Synchronous (no queue, no job): the static checker never simulates,
        so a lint answers in milliseconds and a job handle would be pure
        overhead.  Runs on a daemon-side inline session, lazily built and
        serialized — lint never touches the profile cache, so it cannot
        perturb dynamic results.
        """
        try:
            request = AdvisingRequest.from_dict(payload)
        except (ApiError, TypeError, ValueError) as exc:
            raise ServiceValidationError(f"lint request: {exc}") from exc
        with self._state_lock:
            if self._state != "serving":
                raise ServiceUnavailableError(
                    f"daemon is {self._state}; not accepting new jobs"
                )
        with self._session_lock:
            if self._session is None:
                self._session = _session_from_primitives(self.config.primitives())
            try:
                return self._session.lint(request).to_dict()
            except ApiError:
                raise
            except Exception as exc:
                raise ServiceValidationError(f"lint failed: {exc}") from exc

    def healthz(self) -> dict:
        return {
            "kind": "healthz",
            "schema_version": API_SCHEMA_VERSION,
            "status": "ok" if self.state == "serving" else self.state,
            "state": self.state,
            "config": self.config.primitives(),
        }

    def stats(self) -> dict:
        # A stats read is a store access, so it evicts first like every
        # other: an idle daemon must not count expired jobs as stored.
        self.store.evict()
        counts = self.store.counts
        with self._stats_lock:
            hits, misses = self._cache_hits, self._cache_misses
            in_flight = self._in_flight
            executions = self._executions
        with self._coalesce_lock:
            groups = self._coalesce_groups
            inflight_keys = len(self._inflight_by_fp)
        lookups = hits + misses
        return {
            "kind": "service_stats",
            "schema_version": API_SCHEMA_VERSION,
            "state": self.state,
            "workers": self.workers,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            "in_flight": in_flight,
            "jobs_submitted": counts.submitted,
            "jobs_served": counts.served,
            "jobs_done": counts.done,
            "jobs_failed": counts.failed,
            "jobs_aborted": counts.aborted,
            "jobs_evicted": counts.evicted,
            "jobs_coalesced": counts.coalesced,
            "jobs_executed": executions,
            "jobs_recovered": self._recovered,
            "jobs_stored": len(self.store),
            "coalescing": {
                "groups": groups,
                "attached": counts.coalesced,
                "in_flight_keys": inflight_keys,
            },
            "persistence": {
                "backend": "sqlite" if self.store_path else "memory",
                "path": self.store_path,
            },
            "cache": None if self.config.cache_dir is None else {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
            },
            "uptime_seconds": (
                round(time.monotonic() - self._started_at, 3)
                if self._started_at is not None else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job_id = self.queue.get()
            if job_id is None:  # shutdown sentinel
                return
            try:
                job = self.store.mark_running(job_id)
            except ServiceError:  # evicted/raced away; nothing to run
                self._pop_followers(job_id)
                continue
            with self._stats_lock:
                self._in_flight += 1
            try:
                self._settle(job)
            finally:
                with self._stats_lock:
                    self._in_flight -= 1

    def _settle(self, job: Job) -> None:
        """Execute one job and move it to a terminal state, never raising."""
        executor = self._executor
        with self._stats_lock:
            self._executions += 1
        try:
            outcome = self._execute(job.payload, job.index)
        except BaseException as exc:
            error = traceback.format_exc()
            self._finish_group(job, self._failed_result(job, error), error)
            if isinstance(exc, BrokenProcessPool):
                self._replace_pool(executor)
            return
        result = outcome["result"]
        with self._stats_lock:
            self._cache_hits += outcome["cache_hits"]
            self._cache_misses += outcome["cache_misses"]
        self._finish_group(job, result, result.get("error"))

    def _finish_group(self, job: Job, result: Optional[dict],
                      error: Optional[str]) -> None:
        """Settle a finished primary, then fan its result out to every
        submission that coalesced onto it (each under its own address)."""
        followers = self._pop_followers(job.job_id)
        self.store.finish(job.job_id, result, error)
        for follower_id in followers:
            try:
                follower = self.store.get(follower_id)
                self.store.finish(
                    follower_id, self._adapted_result(result, follower), error
                )
            except ServiceError:  # pragma: no cover - evicted under us
                continue

    def _execute(self, payload: dict, index: int) -> dict:
        """One job through the pool (or inline when ``use_pool=False``)."""
        executor = self._executor
        if executor is not None:
            # ``_service_advise`` is looked up at call time: traced
            # benchmark runs replace this module's binding.
            future = executor.submit(
                _service_advise, self.config.primitives(), payload, index
            )
            return future.result()
        # Inline mode: the session's stage caches are not guaranteed
        # thread-safe, so inline execution is serialized.
        with self._session_lock:
            return _advise_with_session(self._session, payload, index)

    def _failed_result(self, job: Job, error: str) -> Optional[dict]:
        """A synthesized failed result, like the session's pool path makes.

        Mirrors :meth:`AdvisingSession._stream_pool
        <repro.api.session.AdvisingSession._stream_pool>`: a worker-process
        death still yields a well-formed ``advising_result`` whose ``error``
        carries the captured traceback.
        """
        try:
            request = AdvisingRequest.from_dict(job.payload)
            return AdvisingResult(
                request=request,
                index=job.index,
                label=job.label,
                **reported_knobs(request, self.config),
                error=error,
            ).to_dict()
        except Exception:  # pragma: no cover - payload was validated at submit
            return None

    def _replace_pool(self, broken) -> None:
        """Swap the observed-broken executor for a fresh one (daemon keeps
        serving).  A concurrent replacement wins: when every in-flight
        future of one dead pool fails at once, only the first worker thread
        to get here replaces it — the rest see a different (healthy)
        ``self._executor`` and leave it alone."""
        with self._state_lock:
            if self._state != "serving" or self._executor is not broken:
                return
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        if broken is not None:
            broken.shutdown(wait=False)
