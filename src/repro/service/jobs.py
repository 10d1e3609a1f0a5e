"""Jobs: the unit of work the daemon tracks.

A :class:`Job` is one admitted advising request travelling through the
daemon: it carries the validated request payload (wire form), walks the
state machine ``queued -> running -> done | failed``, and ends with the
serialized :class:`~repro.api.result.AdvisingResult` — the same envelope an
inline :meth:`AdvisingSession.advise <repro.api.session.AdvisingSession
.advise>` call would dump, which is what makes daemon results bit-identical
to inline ones.

Jobs live in the daemon's one store,
:class:`~repro.service.repository.JobRepository` (a SQLite file with
``--store``, an in-memory database otherwise), which also keeps the
:class:`JobCounts` that ``/v1/stats`` reports.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Optional

from repro.api.schema import API_SCHEMA_VERSION

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
