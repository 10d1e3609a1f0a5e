"""Jobs and the job store.

A :class:`Job` is one admitted advising request travelling through the
daemon: it carries the validated request payload (wire form), walks the
state machine ``queued -> running -> done | failed``, and ends with the
serialized :class:`~repro.api.result.AdvisingResult` — the same envelope an
inline :meth:`AdvisingSession.advise <repro.api.session.AdvisingSession
.advise>` call would dump, which is what makes daemon results bit-identical
to inline ones.

The :class:`JobStore` is the daemon's in-memory registry of jobs.  It is
fully thread-safe (HTTP handler threads read views while worker threads
advance states) and evicts *terminal* jobs whose results have outlived
``ttl`` seconds, so a long-running daemon's memory is bounded by its
traffic rate rather than its uptime.  Queued and running jobs are never
evicted.  The clock is injectable for deterministic eviction tests.

:class:`JobStore` and the SQLite-backed
:class:`~repro.service.repository.JobRepository` implement one registry
contract (:class:`JobRegistry`): the daemon talks to either
interchangeably, and eviction is *explicit* (:meth:`JobStore.evict`) on
both — the daemon schedules it — in addition to being piggybacked on
access, so the two backends share one eviction story instead of each
inventing its own.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro.api.schema import API_SCHEMA_VERSION
from repro.service.errors import UnknownJobError

#: The job state machine, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")
#: States a job can never leave (and the only ones TTL eviction touches).
TERMINAL_STATES = ("done", "failed")


def new_job_id() -> str:
    """A fresh opaque job id (collision-free across daemon restarts)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Job:
    """One advising request's journey through the daemon."""

    job_id: str
    #: Submission index inside its batch (0 for single submissions); the
    #: executed result keeps the same index, like pool-streamed results do.
    index: int
    #: The validated ``advising_request`` envelope (canonical wire form).
    payload: dict
    label: str
    state: str = "queued"
    #: The ``advising_result`` envelope once terminal (present for failed
    #: jobs too: execution failures are captured into the result, mirroring
    #: the session's error capture).
    result: Optional[dict] = None
    #: The captured error text when the job failed, ``None`` otherwise.
    error: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Id of the in-flight job this submission coalesced onto (``None`` for
    #: jobs that ran — or will run — their own simulation).
    coalesced_with: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def view(self) -> dict:
        """The JSON shape ``GET /v1/jobs/<id>`` answers with."""
        return {
            "kind": "job",
            "schema_version": API_SCHEMA_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "index": self.index,
            "label": self.label,
            "result": self.result,
            "error": self.error,
            "coalesced_with": self.coalesced_with,
            "waited_seconds": (
                round(self.started_at - self.submitted_at, 6)
                if self.started_at is not None else None
            ),
            "ran_seconds": (
                round(self.finished_at - self.started_at, 6)
                if self.finished_at is not None and self.started_at is not None
                else None
            ),
        }


@dataclass
class JobCounts:
    """Aggregate throughput counters for ``/v1/stats``."""

    submitted: int = 0
    done: int = 0
    failed: int = 0
    #: Jobs dropped from the queue by a no-drain shutdown — they end in the
    #: ``failed`` *state* but were never executed, so they count neither as
    #: served nor as failed executions.
    aborted: int = 0
    evicted: int = 0
    #: Submissions that attached to another job's in-flight simulation
    #: instead of queueing their own (request coalescing).
    coalesced: int = 0

    @property
    def served(self) -> int:
        """Jobs actually executed to a terminal state."""
        return self.done + self.failed

    def as_dict(self) -> dict:
        """The ``/v1/stats`` representation of these counters."""
        return {
            "submitted": self.submitted,
            "done": self.done,
            "failed": self.failed,
            "aborted": self.aborted,
            "evicted": self.evicted,
            "coalesced": self.coalesced,
            "served": self.served,
        }


class JobStore:
    """Thread-safe registry of every job the daemon has admitted.

    ``ttl`` bounds how long a *terminal* job's result stays queryable; a
    ``ttl`` of ``None`` disables eviction (jobs live until shutdown).
    Eviction is piggybacked on every store operation — a daemon that is
    being talked to is a daemon that is being cleaned.
    """

    def __init__(self, ttl: Optional[float] = 900.0,
                 clock: Callable[[], float] = time.monotonic):
        if ttl is not None and ttl <= 0:
            raise ValueError(f"job ttl must be positive (or None), got {ttl}")
        self.ttl = ttl
        self._clock = clock
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self.counts = JobCounts()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, payload: dict, label: str, index: int = 0) -> Job:
        """Register a fresh ``queued`` job for a validated payload."""
        job = Job(
            job_id=new_job_id(), index=index, payload=payload, label=label,
            submitted_at=self._clock(),
        )
        with self._lock:
            self._evict_locked()
            self._jobs[job.job_id] = job
            self.counts.submitted += 1
        return job

    def discard(self, job_id: str) -> None:
        """Forget a job that was never admitted (queue rejected it)."""
        with self._lock:
            if self._jobs.pop(job_id, None) is not None:
                self.counts.submitted -= 1

    def mark_running(self, job_id: str) -> Job:
        with self._lock:
            job = self._get_locked(job_id)
            job.state = "running"
            job.started_at = self._clock()
            return job

    def attach(self, job_id: str, primary_id: str) -> Job:
        """Record that ``job_id`` coalesced onto ``primary_id``'s run."""
        with self._lock:
            job = self._get_locked(job_id)
            job.coalesced_with = primary_id
            self.counts.coalesced += 1
            return job

    def finish(self, job_id: str, result: Optional[dict],
               error: Optional[str]) -> Job:
        """Move an executed job to ``done``/``failed`` with its result."""
        return self._settle(job_id, result, error, aborted=False)

    def abort(self, job_id: str, error: str) -> Job:
        """Fail a job that was dropped from the queue without running."""
        return self._settle(job_id, None, error, aborted=True)

    def _settle(self, job_id: str, result: Optional[dict],
                error: Optional[str], aborted: bool) -> Job:
        with self._lock:
            job = self._get_locked(job_id)
            job.state = "failed" if error is not None else "done"
            job.result = result
            job.error = error
            job.finished_at = self._clock()
            if job.started_at is None:  # aborted straight out of the queue
                job.started_at = job.finished_at
            if aborted:
                self.counts.aborted += 1
            elif error is not None:
                self.counts.failed += 1
            else:
                self.counts.done += 1
            return job

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            self._evict_locked()
            return self._get_locked(job_id)

    def view(self, job_id: str) -> dict:
        with self._lock:
            self._evict_locked()
            return self._get_locked(job_id).view()

    def pending(self) -> List[str]:
        """Ids of every non-terminal job, oldest first."""
        with self._lock:
            return [job.job_id for job in self._jobs.values() if not job.terminal]

    def recover(self) -> List[str]:
        """Job ids to re-enqueue after a restart.

        An in-memory store forgets everything with its process, so there is
        never anything to recover; the SQLite repository overrides this
        with real crash recovery.  Part of the :class:`JobRegistry`
        contract so the daemon can call it unconditionally.
        """
        return []

    def close(self) -> None:
        """Release backing resources (no-op for the in-memory store)."""

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._jobs

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict(self) -> int:
        """Drop terminal jobs older than ``ttl``; returns how many."""
        with self._lock:
            return self._evict_locked()

    def _evict_locked(self) -> int:
        if self.ttl is None:
            return 0
        deadline = self._clock() - self.ttl
        stale = [
            job_id for job_id, job in self._jobs.items()
            if job.terminal and job.finished_at is not None
            and job.finished_at <= deadline
        ]
        for job_id in stale:
            del self._jobs[job_id]
        self.counts.evicted += len(stale)
        return len(stale)

    def _get_locked(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(
                f"unknown job id {job_id!r} (never submitted, or its result "
                f"outlived the {self.ttl}s retention window)"
            ) from None


@runtime_checkable
class JobRegistry(Protocol):
    """The registry contract the daemon programs against.

    Implemented by the in-memory :class:`JobStore` and the SQLite-backed
    :class:`~repro.service.repository.JobRepository`.  Everything the
    daemon, HTTP layer, and tests need from a store is here — swap
    backends without touching callers.
    """

    ttl: Optional[float]
    counts: JobCounts

    def create(self, payload: dict, label: str, index: int = 0) -> Job: ...
    def discard(self, job_id: str) -> None: ...
    def mark_running(self, job_id: str) -> Job: ...
    def attach(self, job_id: str, primary_id: str) -> Job: ...
    def finish(self, job_id: str, result: Optional[dict],
               error: Optional[str]) -> Job: ...
    def abort(self, job_id: str, error: str) -> Job: ...
    def get(self, job_id: str) -> Job: ...
    def view(self, job_id: str) -> dict: ...
    def pending(self) -> List[str]: ...
    def recover(self) -> List[str]: ...
    def evict(self) -> int: ...
    def close(self) -> None: ...
    def __len__(self) -> int: ...
    def __contains__(self, job_id: str) -> bool: ...
