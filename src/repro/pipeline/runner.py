"""Progress events of a batch of advising requests.

:meth:`AdvisingSession.stream <repro.api.session.AdvisingSession.stream>`
reports each request it runs to an optional :data:`ProgressCallback`: a
``"start"`` event, then a ``"done"`` or ``"error"`` event for the same
request.  The CLI, the Table 3 harness and the fleet's shard runner all
speak this one event type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of pipeline progress."""

    step: str
    index: int
    total: int
    #: ``"start"``, ``"done"`` or ``"error"``.
    status: str
    duration: float = 0.0
    error: Optional[str] = None


#: Observer signature: called synchronously; exceptions are the caller's.
ProgressCallback = Callable[[ProgressEvent], None]
