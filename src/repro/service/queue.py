"""The bounded FIFO job queue.

The daemon's admission control lives here: the queue holds at most
``capacity`` pending jobs and *rejects* — it never blocks — submissions that
would exceed it (:class:`~repro.service.errors.QueueFullError`, surfaced
over HTTP as a 429).  Backpressure therefore lands on the submitting client
immediately instead of piling unbounded work onto the daemon.  A batch
larger than the whole capacity is a different failure — no amount of
retrying can ever admit it — and raises
:class:`~repro.service.errors.ServiceValidationError` (a 400) instead.

Batch submissions are admitted atomically: :meth:`JobQueue.put_many` either
enqueues every job of the batch or none of them, so a client never has to
reconcile a half-accepted batch.

Shutdown uses in-band sentinels (:meth:`JobQueue.close`): one ``None`` per
worker thread is appended *behind* whatever is already queued, so a draining
daemon finishes every admitted job — FIFO order guarantees a worker only
sees its sentinel after the real work — and each worker exits on the first
sentinel it pops.  Sentinels bypass the capacity bound: closing a full
queue must never fail.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import List, Optional

from repro.service.errors import QueueFullError, ServiceValidationError


class JobQueue:
    """A bounded FIFO of job ids with rejecting (non-blocking) admission."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        self._not_empty = threading.Condition(threading.Lock())
        #: Total jobs ever admitted (sentinels excluded).
        self.admitted = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def put(self, item: str) -> None:
        """Admit one job id, or raise :class:`QueueFullError`."""
        self.put_many([item])

    def put_many(self, items: List[str]) -> None:
        """Admit a batch atomically: all of it fits, or none is enqueued."""
        if len(items) > self.capacity:
            # Retrying can never help; this is a client error (400), not
            # transient backpressure (429).
            raise ServiceValidationError(
                f"batch of {len(items)} jobs exceeds the queue capacity of "
                f"{self.capacity}; split it or raise --queue-size"
            )
        with self._not_empty:
            depth = self._depth_locked()
            if depth + len(items) > self.capacity:
                raise QueueFullError(
                    f"job queue is full ({depth}/{self.capacity} queued, "
                    f"{len(items)} submitted); retry later"
                )
            self._items.extend(items)
            self.admitted += len(items)
            self._not_empty.notify(len(items))

    def restore(self, items: List[str]) -> None:
        """Re-enqueue recovered job ids, bypassing the capacity bound.

        Crash recovery must never reject work the daemon already admitted
        before it died: every id a persistent store hands back from
        :meth:`~repro.service.repository.JobRepository.recover` is requeued
        even if that briefly overshoots ``capacity`` — fresh submissions
        still see the bound (an overshot queue rejects them until it
        drains).
        """
        with self._not_empty:
            self._items.extend(items)
            self.admitted += len(items)
            self._not_empty.notify(len(items))

    def close(self, workers: int) -> None:
        """Append one shutdown sentinel per worker (capacity-exempt)."""
        with self._not_empty:
            self._items.extend([None] * workers)
            self._not_empty.notify(workers)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Optional[str]:
        """Pop the oldest item, blocking until one exists.

        Returns the job id, or ``None`` for a shutdown sentinel.  With a
        ``timeout``, raises :class:`TimeoutError` if nothing arrives.
        """
        with self._not_empty:
            while not self._items:
                if not self._not_empty.wait(timeout):
                    raise TimeoutError("job queue stayed empty")
            return self._items.popleft()

    def clear(self) -> List[str]:
        """Drop (and return) every pending job id; sentinels stay queued."""
        with self._not_empty:
            dropped = [item for item in self._items if item is not None]
            sentinels = len(self._items) - len(dropped)
            self._items.clear()
            self._items.extend([None] * sentinels)
            return dropped

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending jobs (sentinels excluded) — the ``/v1/stats`` queue depth."""
        with self._not_empty:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(1 for item in self._items if item is not None)

    def __len__(self) -> int:
        return self.depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobQueue(depth={self.depth}, capacity={self.capacity})"
