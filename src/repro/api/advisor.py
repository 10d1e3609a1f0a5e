"""The shared ``Advisor`` surface: inline session and remote client, one type.

:class:`Advisor` is the structural protocol both execution surfaces
implement:

* :class:`~repro.api.session.AdvisingSession` — runs requests in this
  process (optionally fanning batches across a process pool), and
* :class:`~repro.service.client.ServiceClient` — submits the same wire
  forms to a remote :class:`~repro.service.daemon.AdvisingDaemon`.

Because daemon results are bit-identical to inline ones by construction,
code written against ``Advisor`` moves between the two with a one-line
swap of the constructor::

    def audit(advisor: Advisor, requests: list[AdvisingRequest]) -> None:
        for result in advisor.stream(requests):
            ...

    audit(AdvisingSession(architecture="sm_70"), requests)     # inline
    audit(ServiceClient("http://127.0.0.1:8765"), requests)    # remote

The protocol pins the four verbs and their core shapes only; each
implementation keeps its own extra keyword knobs (``progress`` callbacks
inline, ``timeout`` and ``stream``'s ``poll_interval`` remotely).
``@runtime_checkable`` makes ``isinstance(surface, Advisor)`` usable in
tests and plugin registries — with the usual caveat that runtime checks
verify method *presence*, not signatures.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterator,
    List,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.api.request import AdvisingRequest
from repro.api.result import AdvisingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.report import StaticReport

__all__ = ["Advisor"]


@runtime_checkable
class Advisor(Protocol):
    """Anything that can advise: one request, an ordered batch, a stream,
    or a simulation-free static lint."""

    def advise(self, request: AdvisingRequest, /, *args, **kwargs) -> AdvisingResult:
        """Execute one request; advising failures land in ``result.error``."""
        ...

    def advise_many(
        self, requests: Sequence[AdvisingRequest], /, *args, **kwargs
    ) -> List[AdvisingResult]:
        """Execute a batch; results come back in submission order."""
        ...

    def stream(
        self, requests: Sequence[AdvisingRequest], /, *args, **kwargs
    ) -> Iterator[AdvisingResult]:
        """Yield results in completion order (``result.index`` keeps the
        submission position)."""
        ...

    def lint(
        self, request: AdvisingRequest, /, *args, **kwargs
    ) -> "StaticReport":
        """Run the static checker over the request's binary — no simulation."""
        ...
