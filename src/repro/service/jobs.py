"""Jobs: the unit of work the daemon tracks.

A :class:`Job` is one admitted advising request travelling through the
daemon: it carries the validated request payload (wire form), walks the
state machine ``queued -> running -> done | failed``, and ends with the
serialized :class:`~repro.api.result.AdvisingResult` — the same envelope an
inline :meth:`AdvisingSession.advise <repro.api.session.AdvisingSession
.advise>` call would dump, which is what makes daemon results bit-identical
to inline ones.  The envelope stays the JSON text the pool worker encoded:
the store writes it and :meth:`Job.view_json` serves it without decoding.

Jobs live in the daemon's one store,
:class:`~repro.service.repository.JobRepository` (a SQLite file with
``--store``, an in-memory database otherwise), which also keeps the
:class:`JobCounts` that ``/v1/stats`` reports and lets a reader block
until a job settles.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api.schema import API_SCHEMA_VERSION

#: The job state machine, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")
#: States a job can never leave (and the only ones TTL eviction touches).
TERMINAL_STATES = ("done", "failed")
#: The longest (seconds) one ``GET /v1/jobs/<id>?wait=`` holds its reply;
#: longer waits are clamped to it, and the client waits in slices of it.
MAX_WAIT_S = 30.0


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
    #: The JSON text of the ``advising_result`` envelope once terminal, as
    #: the worker encoded it (present for failed jobs too: execution
    #: failures are captured into the result, mirroring the session's error
    #: capture).
    result_json: Optional[str] = None
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

    @property
    def result(self) -> Optional[dict]:
        """The ``advising_result`` envelope, decoded from :attr:`result_json`."""
        return None if self.result_json is None else json.loads(self.result_json)

    def view(self) -> dict:
        """The JSON shape ``GET /v1/jobs/<id>`` answers with."""
        head, tail = self._members()
        return {**head, "result": self.result, **tail}

    def view_json(self) -> str:
        """``json.dumps(self.view())``, with :attr:`result_json` placed
        verbatim instead of decoded and encoded again.

        The members around ``result`` are encoded on their own and joined
        with the default separators, so no text inside them (a label that
        reads ``"result": null``, say) can move the splice.
        """
        head, tail = self._members()
        result = "null" if self.result_json is None else self.result_json
        return f'{json.dumps(head)[:-1]}, "result": {result}, {json.dumps(tail)[1:]}'

    def _members(self) -> Tuple[dict, dict]:
        """The view's members before and after ``result``, in order."""
        head = {
            "kind": "job",
            "schema_version": API_SCHEMA_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "index": self.index,
            "label": self.label,
        }
        tail = {
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
        return head, tail


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
