"""The typed advising result.

An :class:`AdvisingResult` is the outcome of one :class:`~repro.api.request
.AdvisingRequest`: the ranked :class:`~repro.advisor.report.AdviceReport` on
success or the captured traceback on failure, plus the submission index, the
resolved architecture/sample period and the wall-clock duration.  Results
serialize losslessly (``to_dict``/``from_dict`` under
:data:`~repro.api.schema.API_SCHEMA_VERSION`): a result dumped by a pool
worker is byte-identical after reload, which is exactly how
:meth:`~repro.api.session.AdvisingSession.stream` moves results between
processes — and how a service daemon would move them between machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional

from repro.advisor.report import AdviceReport
from repro.api.request import AdvisingRequest
from repro.api.schema import (
    ApiError,
    check_envelope,
    envelope,
    reject_unknown_keys,
    require_key,
)


def error_summary(error: Optional[str]) -> str:
    """The last non-empty line of a captured traceback, for one-line display."""
    lines = (error or "").strip().splitlines()
    return lines[-1] if lines else "unknown error"


class AdvisingError(ApiError, RuntimeError):
    """Raised when a caller demands the report of a failed result."""

    def __init__(self, result: "AdvisingResult"):
        self.result = result
        super().__init__(
            f"advising {result.label or result.request.describe()!r} failed: "
            f"{error_summary(result.error)}"
        )


@dataclass
class AdvisingResult:
    """What happened to one advising request."""

    request: AdvisingRequest
    #: Submission index within its batch (0 for single requests); streamed
    #: results arrive in completion order but keep their submission index.
    index: int = 0
    #: Display label (the request's ``describe()`` unless overridden).
    label: str = ""
    #: Architecture flag, sample period, simulation scope and memory model
    #: the job actually ran with (the request's knobs with session defaults
    #: filled in; a profile-source request reports what its profile records).
    arch_flag: str = ""
    sample_period: int = 0
    simulation_scope: str = "single_wave"
    memory_model: str = "flat"
    report: Optional[AdviceReport] = None
    error: Optional[str] = None
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def require_report(self) -> AdviceReport:
        """The report, or :class:`AdvisingError` if the request failed."""
        if self.report is None:
            raise AdvisingError(self)
        return self.report

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return envelope(
            "advising_result",
            {
                "request": self.request.to_dict(),
                "index": self.index,
                "label": self.label,
                "arch_flag": self.arch_flag,
                "sample_period": self.sample_period,
                "simulation_scope": self.simulation_scope,
                "memory_model": self.memory_model,
                "report": self.report.to_dict() if self.report is not None else None,
                "error": self.error,
                "duration": self.duration,
            },
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "AdvisingResult":
        payload = check_envelope(payload, "advising_result")
        reject_unknown_keys(payload, "advising_result", _WIRE_KEYS)
        report = payload.get("report")
        return cls(
            request=AdvisingRequest.from_dict(
                require_key(payload, "request", "advising_result")
            ),
            index=payload.get("index", 0),
            label=payload.get("label", ""),
            arch_flag=payload.get("arch_flag", ""),
            sample_period=payload.get("sample_period", 0),
            simulation_scope=payload.get("simulation_scope", "single_wave"),
            memory_model=payload.get("memory_model", "flat"),
            report=AdviceReport.from_dict(report) if report is not None else None,
            error=payload.get("error"),
            duration=payload.get("duration", 0.0),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AdvisingResult":
        return cls.from_dict(json.loads(text))


#: The top-level keys of a result's wire form: the envelope and one per field.
_WIRE_KEYS = frozenset({"schema_version", "kind"}).union(
    field.name for field in fields(AdvisingResult)
)


def dump_jsonl(results: Iterable[AdvisingResult]) -> Iterator[str]:
    """One compact JSON line per result (the CLI's ``--output jsonl``)."""
    for result in results:
        yield json.dumps(result.to_dict(), separators=(",", ":"))


def load_jsonl(lines: Iterable[str]) -> Iterator[AdvisingResult]:
    """Reload results dumped by :func:`dump_jsonl` (blank lines skipped)."""
    for line in lines:
        line = line.strip()
        if line:
            yield AdvisingResult.from_json(line)
