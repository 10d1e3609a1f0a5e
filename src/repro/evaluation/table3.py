"""Table 3: achieved vs. estimated speedups for every benchmark/optimization pair.

For each row the harness

1. profiles the baseline kernel on the simulated V100 and runs GPA's dynamic
   analyzer on the profile (the *estimated* speedup is the matched
   optimizer's estimate; its rank among the applicable suggestions is also
   recorded);
2. profiles the hand-optimized variant of the same kernel (the code change
   the paper applied) and computes the *achieved* speedup as the ratio of
   estimated kernel cycles;
3. reports the estimate error ``|estimated - achieved| / achieved``.

Absolute times are simulator cycles, not the paper's microseconds; only the
speedups and their ordering are meaningful for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.advisor.advisor import GPA
from repro.evaluation.metrics import geometric_mean
from repro.pipeline.batch import (
    BatchAdvisor,
    BatchConfig,
    error_summary,
    evaluate_case_outcome,
)
from repro.pipeline.runner import ProgressCallback
from repro.workloads.base import BenchmarkCase
from repro.workloads.registry import all_cases

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.session import AdvisingSession


@dataclass
class Table3Row:
    """One row of the reproduced Table 3."""

    case: BenchmarkCase
    baseline_cycles: float
    optimized_cycles: float
    achieved_speedup: float
    estimated_speedup: float
    error: float
    #: Rank of the expected optimizer among the applicable advice (1 = top).
    optimizer_rank: Optional[int]
    total_samples: int

    @property
    def name(self) -> str:
        return self.case.name

    @property
    def optimization(self) -> str:
        return self.case.optimization


@dataclass
class Table3Result:
    """All rows plus the aggregate statistics the paper reports."""

    rows: List[Table3Row] = field(default_factory=list)
    #: Cases that failed during a batch sweep, as (case_id, traceback) pairs;
    #: one bad case never kills the whole table.
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def geomean_achieved(self) -> float:
        return geometric_mean(row.achieved_speedup for row in self.rows)

    @property
    def geomean_estimated(self) -> float:
        return geometric_mean(row.estimated_speedup for row in self.rows)

    @property
    def geomean_error(self) -> float:
        return geometric_mean(max(row.error, 1e-4) for row in self.rows)

    @property
    def mean_error(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.error for row in self.rows) / len(self.rows)


def _row_from_outcome(case: BenchmarkCase, outcome: dict) -> Table3Row:
    """Build a :class:`Table3Row` from a batch-worker outcome dict."""
    return Table3Row(
        case=case,
        baseline_cycles=outcome["baseline_cycles"],
        optimized_cycles=outcome["optimized_cycles"],
        achieved_speedup=outcome["achieved_speedup"],
        estimated_speedup=outcome["estimated_speedup"],
        error=outcome["error"],
        optimizer_rank=outcome["optimizer_rank"],
        total_samples=outcome["total_samples"],
    )


def evaluate_case(
    case: BenchmarkCase,
    gpa: Optional[GPA] = None,
    sample_period: int = 8,
    session: Optional["AdvisingSession"] = None,
) -> Table3Row:
    """Evaluate one Table 3 row (profile baseline, advise, profile optimized).

    ``session`` is the preferred engine; the legacy ``gpa`` argument is kept
    for compatibility (its internal session is used).
    """
    if session is None:
        if gpa is not None:
            session = gpa.session
        else:
            from repro.api.session import AdvisingSession

            session = AdvisingSession(sample_period=sample_period)
    return _row_from_outcome(case, evaluate_case_outcome(case, session))


def evaluate_table3(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    sample_period: int = 8,
    jobs: int = 1,
    arch_flag: str = "sm_70",
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    simulation_scope: str = "single_wave",
    memory_model: str = "flat",
) -> Table3Result:
    """Evaluate every Table 3 row (or the supplied subset).

    Each case's baseline + optimized profiles are pipeline jobs: ``jobs > 1``
    fans registry cases across worker processes, ``cache_dir`` replays
    previously simulated profiles from disk, ``arch_flag`` retargets the
    sweep onto any registered architecture, and ``simulation_scope``
    selects the simulation engine (``"whole_gpu"`` measures whole-kernel
    cycles across every SM instead of extrapolating one wave), and
    ``memory_model`` selects the memory system (``"hierarchy"`` services
    accesses through the coalescing L1/L2/DRAM model).  Per-case
    failures land in :attr:`Table3Result.failures` instead of aborting the
    sweep.
    """
    case_list = list(cases) if cases is not None else all_cases()
    advisor = BatchAdvisor(
        BatchConfig(
            arch_flag=arch_flag,
            sample_period=sample_period,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            jobs=jobs,
            simulation_scope=simulation_scope,
            memory_model=memory_model,
        )
    )
    result = Table3Result()
    for case, outcome in zip(case_list, advisor.evaluate_table3(case_list, progress=progress)):
        if outcome.ok:
            result.rows.append(_row_from_outcome(case, outcome.value))
        else:
            result.failures.append((outcome.case_id, outcome.error))
    return result


def format_table3(result: Table3Result, include_paper: bool = True) -> str:
    """Render the reproduced Table 3 as aligned text."""
    header = (
        f"{'Application':24s} {'Kernel':28s} {'Optimization':30s} "
        f"{'Original':>12s} {'Achieved':>9s} {'Estimated':>10s} {'Error':>7s} {'Rank':>5s}"
    )
    if include_paper:
        header += f"  {'Paper A.':>9s} {'Paper E.':>9s}"
    lines = [header, "-" * len(header)]
    for row in result.rows:
        line = (
            f"{row.case.name:24s} {row.case.kernel:28s} {row.case.optimization:30s} "
            f"{row.baseline_cycles:10.0f}cy {row.achieved_speedup:8.2f}x "
            f"{row.estimated_speedup:9.2f}x {row.error * 100:6.1f}% "
            f"{row.optimizer_rank if row.optimizer_rank is not None else '-':>5}"
        )
        if include_paper:
            line += (
                f"  {row.case.paper_achieved_speedup:8.2f}x "
                f"{row.case.paper_estimated_speedup:8.2f}x"
            )
        lines.append(line)
    lines.append("-" * len(header))
    # The aggregate row is the geometric mean throughout — including the
    # error column, which once printed the arithmetic mean under this label.
    lines.append(
        f"{'geomean':24s} {'':28s} {'':30s} {'':>12s} "
        f"{result.geomean_achieved:8.2f}x {result.geomean_estimated:9.2f}x "
        f"{result.geomean_error * 100:6.1f}%"
    )
    if result.failures:
        lines.append("")
        lines.append(
            f"{len(result.failures)} case(s) FAILED and are excluded from the "
            f"rows and aggregates above:"
        )
        for case_id, error in result.failures:
            lines.append(f"  {case_id}: {error_summary(error)}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command-line entry point (the nightly sweep's engine)
# ----------------------------------------------------------------------
def table3_payload(result: Table3Result, config: dict) -> dict:
    """A JSON document of the reproduced table (the nightly artifact)."""
    return {
        "kind": "table3",
        "config": config,
        "rows": [
            {
                "case": row.case.case_id,
                "application": row.case.name,
                "kernel": row.case.kernel,
                "optimization": row.case.optimization,
                "baseline_cycles": row.baseline_cycles,
                "optimized_cycles": row.optimized_cycles,
                "achieved_speedup": row.achieved_speedup,
                "estimated_speedup": row.estimated_speedup,
                "error": row.error,
                "optimizer_rank": row.optimizer_rank,
                "total_samples": row.total_samples,
                "paper_achieved_speedup": row.case.paper_achieved_speedup,
                "paper_estimated_speedup": row.case.paper_estimated_speedup,
            }
            for row in result.rows
        ],
        "failures": [
            {"case": case_id, "error": error}
            for case_id, error in result.failures
        ],
        "geomean_achieved": result.geomean_achieved,
        "geomean_estimated": result.geomean_estimated,
        "geomean_error": result.geomean_error,
        "mean_error": result.mean_error,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.evaluation.table3``: sweep the registry, write the table.

    Exits non-zero when anything went wrong, and distinguishes *results*
    from *infrastructure* (see :mod:`repro.evaluation.exitcodes`): cases
    that failed evaluation exit 3 — the sweep ran, the data is red — while
    an exception out of the harness itself exits 1, telling CI the leg is
    retryable rather than the numbers bad.
    """
    import argparse
    import json
    import sys
    import traceback
    from pathlib import Path

    from repro.evaluation.exitcodes import (
        EXIT_CASES_FAILED,
        EXIT_INFRA,
        EXIT_OK,
    )

    from repro.sampling.memory import MEMORY_MODELS
    from repro.sampling.profiler import SIMULATION_SCOPES

    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.table3",
        description="Reproduce Table 3 over the full benchmark registry.",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--arch", default="sm_70", dest="arch_flag",
                        help="architecture model (default sm_70)")
    parser.add_argument("--sample-period", type=int, default=8)
    parser.add_argument("--scope", default="single_wave", choices=SIMULATION_SCOPES,
                        dest="simulation_scope", metavar="SCOPE")
    parser.add_argument("--memory-model", default="flat", choices=MEMORY_MODELS,
                        dest="memory_model", metavar="MODEL")
    parser.add_argument("--cache-dir", default=None, metavar="PATH")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="only evaluate the first N registry cases")
    parser.add_argument("--text", default="-", metavar="PATH",
                        help="where to write the rendered table ('-' = stdout)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the table as a JSON document")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.sample_period <= 0:
        parser.error("--sample-period must be positive")
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be non-negative")

    cases = all_cases()
    if args.limit is not None:
        cases = cases[: args.limit]

    def progress(event) -> None:
        if event.status == "start":
            return
        status = "ok" if event.status == "done" else "FAILED"
        print(f"  {event.step:55s} {status} ({event.duration:.2f}s)",
              file=sys.stderr, flush=True)

    try:
        result = evaluate_table3(
            cases,
            sample_period=args.sample_period,
            jobs=args.jobs,
            arch_flag=args.arch_flag,
            cache_dir=args.cache_dir,
            progress=progress,
            simulation_scope=args.simulation_scope,
            memory_model=args.memory_model,
        )
    except Exception:
        traceback.print_exc()
        print("sweep harness failed before producing a table; retry the run",
              file=sys.stderr)
        return EXIT_INFRA
    rendered = format_table3(result)
    if args.text == "-":
        print(rendered)
    else:
        Path(args.text).write_text(rendered + "\n")
    if args.json is not None:
        config = {
            "arch_flag": args.arch_flag,
            "sample_period": args.sample_period,
            "simulation_scope": args.simulation_scope,
            "memory_model": args.memory_model,
            "cases": len(cases),
            "jobs": args.jobs,
        }
        Path(args.json).write_text(
            json.dumps(table3_payload(result, config), indent=2) + "\n"
        )
    if result.failures:
        print(f"{len(result.failures)} case(s) failed", file=sys.stderr)
        return EXIT_CASES_FAILED
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
