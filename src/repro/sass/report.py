"""Ingestion coverage report for real-disassembly listings.

The SASS frontend never refuses a listing: unknown opcodes decode to
conservative unknown ops, unparseable operands degrade to register-extraction
fallbacks, and unresolved branch targets become fall-through edges.  What it
*does* do is account for every degradation, so a lint report over an ingested
binary always says how much of the listing the analyses actually understood.

:class:`FunctionIngest` is the per-function ledger; :class:`IngestReport`
aggregates them per listing and serializes to the JSON-shaped dict that
:class:`repro.staticcheck.report.StaticReport` carries in its ``ingest``
field (added in schema version 6).  Coverage is ``decoded / total`` where an
instruction counts as decoded iff its opcode is in the catalog — operand
fallbacks and unresolved targets are tracked separately and do not reduce
coverage, because the analyses still reason about those instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


def _coverage(decoded: int, total: int) -> float:
    """Decode coverage as a stable 4-decimal fraction (1.0 for empty)."""
    if total == 0:
        return 1.0
    return round(decoded / total, 4)


@dataclass
class FunctionIngest:
    """Ingestion ledger for one function of a listing."""

    name: str
    #: Instructions seen / successfully matched against the opcode catalog.
    total: int = 0
    decoded: int = 0
    #: Distinct opcodes (with modifiers stripped) absent from the catalog.
    unknown_opcodes: List[str] = field(default_factory=list)
    #: Distinct modifier strings the encoder's table does not know.  These
    #: are carried on the instructions verbatim; the entry just flags that
    #: the binary will not round-trip through the fixed-width encoder.
    unknown_modifiers: List[str] = field(default_factory=list)
    #: Operand tokens that fell back to register extraction.
    operand_failures: List[str] = field(default_factory=list)
    #: Symbolic branch targets that no label in the listing resolves.
    unresolved_targets: List[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return _coverage(self.decoded, self.total)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "total": self.total,
            "decoded": self.decoded,
            "coverage": self.coverage,
            "unknown_opcodes": sorted(set(self.unknown_opcodes)),
            "unknown_modifiers": sorted(set(self.unknown_modifiers)),
            "operand_failures": sorted(set(self.operand_failures)),
            "unresolved_targets": sorted(set(self.unresolved_targets)),
        }


@dataclass
class IngestReport:
    """Everything the frontend learned while lowering one listing."""

    source_name: str
    #: Detected input flavour: ``cuobjdump``, ``nvdisasm`` or ``bare``.
    dialect: str
    #: Architecture flag recovered from the listing (or the caller default).
    arch_flag: str
    functions: List[FunctionIngest] = field(default_factory=list)
    #: Free-form notes about lines the frontend skipped or guessed at.
    warnings: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(entry.total for entry in self.functions)

    @property
    def decoded(self) -> int:
        return sum(entry.decoded for entry in self.functions)

    @property
    def coverage(self) -> float:
        return _coverage(self.decoded, self.total)

    def to_dict(self) -> dict:
        """The JSON-shaped form carried by ``StaticReport.ingest``."""
        return {
            "source_name": self.source_name,
            "dialect": self.dialect,
            "arch_flag": self.arch_flag,
            "total": self.total,
            "decoded": self.decoded,
            "coverage": self.coverage,
            "functions": [entry.to_dict() for entry in self.functions],
            "warnings": list(self.warnings),
        }

    def describe(self) -> str:
        """One-line human summary (used by the CLI's text output)."""
        return (
            f"{self.source_name}: {self.decoded}/{self.total} instructions "
            f"decoded ({self.dialect} dialect, {self.arch_flag}, "
            f"coverage {self.coverage})"
        )
