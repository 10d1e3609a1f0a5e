"""repro.api — the versioned service-layer API.

One declarative vocabulary for every way of running the advisor:

* :class:`~repro.api.request.AdvisingRequest` — a validated description of
  one advising job (a registry case, an inline binary, or an offline
  profile), plus the knobs that change its outcome (architecture, sample
  period, simulation scope, memory model, optimizer selection).  Build one
  directly, from a benchmark case with
  :func:`~repro.api.request.request_for_case`, or from raw disassembly
  with :func:`~repro.api.request.request_for_listing`.
* :class:`~repro.api.session.AdvisingSession` — owns the architecture, the
  optimizer set and the profile cache once, and executes requests inline
  (``advise``), as an ordered batch (``advise_many``) or as a stream of
  results yielded in completion order from a process pool (``stream``).
* :class:`~repro.api.result.AdvisingResult` — the typed outcome: the
  request, the :class:`~repro.advisor.report.AdviceReport` (or the captured
  traceback), and timing.  Requests and results serialize losslessly
  (``to_dict``/``from_dict`` under :data:`API_SCHEMA_VERSION`), which is
  also how they cross the process-pool boundary.

Submodules are loaded lazily so that low layers (``repro.blame``,
``repro.advisor``) can import :mod:`repro.api.schema` — a leaf — without
pulling the whole session machinery into every interpreter.
"""

from __future__ import annotations

from repro.api.schema import (
    API_SCHEMA_VERSION,
    ApiError,
    ApiSchemaError,
    ApiSerializationError,
    ApiValidationError,
)

__all__ = [
    "API_SCHEMA_VERSION",
    "AdvisingRequest",
    "AdvisingResult",
    "AdvisingSession",
    "Advisor",
    "ApiError",
    "ApiSchemaError",
    "ApiSerializationError",
    "ApiValidationError",
    "request_for_case",
    "request_for_listing",
]

_LAZY = {
    "AdvisingRequest": ("repro.api.request", "AdvisingRequest"),
    "request_for_case": ("repro.api.request", "request_for_case"),
    "request_for_listing": ("repro.api.request", "request_for_listing"),
    "AdvisingResult": ("repro.api.result", "AdvisingResult"),
    "AdvisingSession": ("repro.api.session", "AdvisingSession"),
    "Advisor": ("repro.api.advisor", "Advisor"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
