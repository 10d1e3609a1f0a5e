"""The SQLite-backed job repository: the daemon's one job store.

:class:`JobRepository` keeps every job — its validated request payload, its
state transitions, and its terminal ``advising_result`` wire form — in a
SQLite database.  A daemon started with ``--store PATH`` opens a file, so a
daemon that is killed and restarted keeps serving the results it already
computed; a daemon without one opens ``":memory:"``, whose jobs die with the
process.  Both speak the same contract, eviction included.  Replay is
*byte-identical*: result envelopes are stored as the JSON text of the exact
dict the worker produced, and JSON object order round-trips, so a
``GET /v1/jobs/<id>`` after a restart serializes the same bytes it would
have before the crash.

Durability choices:

- **WAL mode** so readers (HTTP handler threads, a second daemon sharing
  the store) never block behind the writer, plus a generous
  ``busy_timeout`` so two daemons on one host contend gracefully.
- **One connection, one lock.**  The repository serializes its own access
  through an :class:`threading.RLock` around a single
  ``check_same_thread=False`` connection — simpler than a connection pool
  and plenty for a job registry whose rows are small.
- **Wall-clock timestamps.**  ``time.time`` (not ``time.monotonic``) is
  the default clock: monotonic readings are meaningless across processes,
  and TTL eviction must keep working after a restart.  The clock stays
  injectable for deterministic tests.
- **Schema-versioned.**  A ``meta`` table records the repository schema
  *and* the API schema the stored wire forms speak; opening a store
  written by an incompatible build raises :class:`RepositoryStateError`
  instead of replaying payloads a strict loader would reject halfway
  through a request.
- **Persistent counters.**  Throughput counters live in a ``counters``
  table so ``/v1/stats`` survives restarts along with the jobs it
  describes.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.api.schema import API_SCHEMA_VERSION
from repro.service.errors import ServiceError, UnknownJobError
from repro.service.jobs import Job, JobCounts, TERMINAL_STATES, new_job_id

#: Version of the on-disk layout.  Bump when tables/columns change shape.
REPOSITORY_SCHEMA_VERSION = 1

#: How long (ms) SQLite waits on a locked database before erroring — sized
#: for multiple daemons sharing one store on one host.
BUSY_TIMEOUT_MS = 10_000

_COUNTER_NAMES = ("submitted", "done", "failed", "aborted", "evicted", "coalesced")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id         TEXT PRIMARY KEY,
    idx            INTEGER NOT NULL,
    payload        TEXT NOT NULL,
    label          TEXT NOT NULL,
    state          TEXT NOT NULL,
    result         TEXT,
    error          TEXT,
    coalesced_with TEXT,
    submitted_at   REAL NOT NULL,
    started_at     REAL,
    finished_at    REAL
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs(state);
CREATE INDEX IF NOT EXISTS jobs_by_finish ON jobs(finished_at);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""


class RepositoryStateError(ServiceError):
    """The store on disk was written by an incompatible build."""


class JobRepository:
    """Thread-safe registry of every job a daemon has admitted, in SQLite.

    ``path`` is a database file, or ``":memory:"`` for a store that lives
    and dies with this object.  ``ttl`` bounds how long a *terminal* job's
    result stays queryable (``None`` disables eviction); queued and running
    jobs are never evicted.  Eviction is piggybacked on every store access;
    :meth:`evict` also runs it on demand.
    """

    def __init__(self, path: Union[str, Path], ttl: Optional[float] = 900.0,
                 clock: Callable[[], float] = time.time):
        if ttl is not None and ttl <= 0:
            raise ValueError(f"job ttl must be positive (or None), got {ttl}")
        self.path = Path(path)
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.RLock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # isolation_level=None: autocommit, with explicit BEGIN IMMEDIATE
        # where multiple statements must land together.
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None,
            timeout=BUSY_TIMEOUT_MS / 1000.0,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._init_schema()

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def _init_schema(self) -> None:
        with self._lock:
            # executescript() commits implicitly, so DDL runs outside the
            # meta/counters transaction (IF NOT EXISTS makes it idempotent).
            self._conn.executescript(_SCHEMA)
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._check_meta("repository_schema", REPOSITORY_SCHEMA_VERSION)
                self._check_meta("api_schema", API_SCHEMA_VERSION)
                for name in _COUNTER_NAMES:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO counters(name, value) VALUES (?, 0)",
                        (name,),
                    )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    def _check_meta(self, key: str, expected: int) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta(key, value) VALUES (?, ?)", (key, str(expected))
            )
        elif row[0] != str(expected):
            raise RepositoryStateError(
                f"job store {self.path} was written with {key}={row[0]} but "
                f"this build speaks {key}={expected}; point the daemon at a "
                f"fresh --store path (or delete the stale one)"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, payload: dict, label: str, index: int = 0) -> Job:
        job = Job(
            job_id=new_job_id(), index=index, payload=payload, label=label,
            submitted_at=self._clock(),
        )
        self.evict()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO jobs(job_id, idx, payload, label, state,"
                    " submitted_at) VALUES (?, ?, ?, ?, ?, ?)",
                    (job.job_id, job.index, json.dumps(payload), job.label,
                     job.state, job.submitted_at),
                )
                self._bump("submitted", 1)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return job

    def discard(self, job_id: str) -> None:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "DELETE FROM jobs WHERE job_id = ?", (job_id,)
                )
                if cursor.rowcount:
                    self._bump("submitted", -1)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    def mark_running(self, job_id: str) -> Job:
        now = self._clock()
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?"
                " WHERE job_id = ?",
                (now, job_id),
            )
            return self.get(job_id)

    def attach(self, job_id: str, primary_id: str) -> Job:
        """Record that ``job_id`` coalesced onto ``primary_id``'s run."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "UPDATE jobs SET coalesced_with = ? WHERE job_id = ?",
                    (primary_id, job_id),
                )
                self._bump("coalesced", 1)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            return self.get(job_id)

    def finish(self, job_id: str, result: Optional[dict],
               error: Optional[str]) -> Job:
        return self._settle(job_id, result, error, aborted=False)

    def abort(self, job_id: str, error: str) -> Job:
        return self._settle(job_id, None, error, aborted=True)

    def _settle(self, job_id: str, result: Optional[dict],
                error: Optional[str], aborted: bool) -> Job:
        state = "failed" if error is not None else "done"
        now = self._clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "UPDATE jobs SET state = ?, result = ?, error = ?,"
                    " finished_at = ?,"
                    " started_at = COALESCE(started_at, ?)"
                    " WHERE job_id = ?",
                    (state, None if result is None else json.dumps(result),
                     error, now, now, job_id),
                )
                if not cursor.rowcount:
                    raise self._unknown(job_id)
                counter = ("aborted" if aborted
                           else "failed" if error is not None else "done")
                self._bump(counter, 1)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            return self.get(job_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            self.evict()
            row = self._conn.execute(
                "SELECT job_id, idx, payload, label, state, result, error,"
                " coalesced_with, submitted_at, started_at, finished_at"
                " FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            raise self._unknown(job_id)
        return self._materialize(row)

    def view(self, job_id: str) -> dict:
        return self.get(job_id).view()

    def pending(self) -> List[str]:
        """Ids of every non-terminal job, submission order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id FROM jobs WHERE state NOT IN (?, ?)"
                " ORDER BY rowid",
                TERMINAL_STATES,
            ).fetchall()
        return [row[0] for row in rows]

    def recover(self) -> List[str]:
        """Heal crash leftovers and return the job ids to re-enqueue.

        Jobs the dead daemon had marked ``running`` never finished — their
        worker died with the process — so they go back to ``queued`` (a
        simulation is pure; re-running it is always safe).  Returns every
        queued id in original submission order for
        :meth:`~repro.service.queue.JobQueue.restore`.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "UPDATE jobs SET state = 'queued', started_at = NULL"
                    " WHERE state = 'running'"
                )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            return self.pending()

    @property
    def counts(self) -> JobCounts:
        """The persisted throughput counters, as a :class:`JobCounts`."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, value FROM counters"
            ).fetchall()
        return JobCounts(**{name: value for name, value in rows})

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict(self) -> int:
        """Drop terminal jobs older than ``ttl``; returns how many.

        Only a settling job gets a ``finished_at``, always together with a
        terminal state, so one range delete over ``jobs_by_finish`` finds
        exactly the expired rows.  A ``state`` predicate would steer SQLite
        back onto ``jobs_by_state``, which visits every settled row.
        """
        if self.ttl is None:
            return 0
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "DELETE FROM jobs WHERE finished_at <= ?",
                    (self._clock() - self.ttl,),
                )
                if cursor.rowcount:
                    self._bump("evicted", cursor.rowcount)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            return cursor.rowcount

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _bump(self, name: str, delta: int) -> None:
        self._conn.execute(
            "UPDATE counters SET value = value + ? WHERE name = ?",
            (delta, name),
        )

    def _materialize(self, row: tuple) -> Job:
        (job_id, index, payload, label, state, result, error,
         coalesced_with, submitted_at, started_at, finished_at) = row
        return Job(
            job_id=job_id, index=index, payload=json.loads(payload),
            label=label, state=state,
            result=None if result is None else json.loads(result),
            error=error, submitted_at=submitted_at, started_at=started_at,
            finished_at=finished_at, coalesced_with=coalesced_with,
        )

    def _unknown(self, job_id: str) -> UnknownJobError:
        return UnknownJobError(
            f"unknown job id {job_id!r} (never submitted, its result "
            f"outlived the {self.ttl}s retention window, or it lives in a "
            f"different job store)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobRepository(path={str(self.path)!r}, jobs={len(self)})"
