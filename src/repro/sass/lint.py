"""One-call lint over real disassembly listings.

``lint_listing`` wires the SASS frontend into the static checker: ingest the
text, run :class:`~repro.staticcheck.engine.StaticChecker` over the lowered
binary, and attach the ingest ledger to the report (the ``ingest`` field
added in schema version 6).  This is what ``gpa-advise lint --sass``
calls; :func:`repro.api.request.request_for_listing` ingests listings the
same way for advising runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cubin.binary import Cubin
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec
from repro.sass.frontend import ingest_file, ingest_listing
from repro.sass.report import FunctionIngest, IngestReport
from repro.staticcheck.engine import StaticChecker
from repro.staticcheck.report import StaticReport


def lint_listing(
    text: str,
    source_name: str = "<sass>",
    default_arch: str = "sm_70",
    kernel: Optional[str] = None,
    config: Optional[LaunchConfig] = None,
    workload: Optional[WorkloadSpec] = None,
    case_id: Optional[str] = None,
    **checker_kwargs,
) -> StaticReport:
    """Ingest ``text`` and lint it; the report carries the ingest ledger."""
    cubin, ingest = ingest_listing(text, source_name=source_name, default_arch=default_arch)
    return _check(cubin, ingest, kernel, config, workload, case_id, checker_kwargs)


def lint_file(
    path,
    default_arch: str = "sm_70",
    kernel: Optional[str] = None,
    config: Optional[LaunchConfig] = None,
    workload: Optional[WorkloadSpec] = None,
    case_id: Optional[str] = None,
    **checker_kwargs,
) -> StaticReport:
    """:func:`lint_listing` over a file on disk."""
    cubin, ingest = ingest_file(path, default_arch=default_arch)
    return _check(cubin, ingest, kernel, config, workload, case_id, checker_kwargs)


def _check(
    cubin: Cubin,
    ingest: IngestReport,
    kernel: Optional[str],
    config: Optional[LaunchConfig],
    workload: Optional[WorkloadSpec],
    case_id: Optional[str],
    checker_kwargs: dict,
) -> StaticReport:
    checker = StaticChecker(**checker_kwargs)
    return checker.check(
        cubin,
        kernel=kernel,
        config=config,
        workload=workload,
        case_id=case_id,
        ingest=ingest.to_dict(),
    )


def cubin_ingest_ledger(cubin: Cubin) -> Optional[dict]:
    """Best-effort ingest ledger for a binary that came through the frontend.

    Ingested functions keep their raw listing text
    (:attr:`~repro.cubin.binary.Function.source_listing`); re-ingesting those
    stored lines reconstructs the per-function ledger so surfaces that only
    see the ``Cubin`` — :meth:`repro.api.session.AdvisingSession.lint` on a
    request built with ``request_for_listing()`` — still report coverage.  Returns
    ``None`` for binaries with no ingested functions (the in-repo builder
    path).  Best-effort: listing lines the original ingest could not decode
    at all are not stored, so the reconstructed ``total`` counts decoded
    instructions only.
    """
    from dataclasses import replace

    functions: List[FunctionIngest] = []
    warnings: List[str] = []
    dialect: Optional[str] = None
    for name, function in cubin.functions.items():
        if function.source_listing is None:
            continue
        _, report = ingest_listing(
            function.source_listing,
            source_name=function.source_file or name,
            default_arch=cubin.arch_flag,
        )
        dialect = dialect or report.dialect
        for entry in report.functions:
            functions.append(replace(entry, name=name))
        warnings.extend(report.warnings)
    if not functions:
        return None
    merged = IngestReport(
        source_name=cubin.module_name,
        dialect=dialect or "bare",
        arch_flag=cubin.arch_flag,
        functions=functions,
        warnings=warnings,
    )
    return merged.to_dict()
