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

The row and its aggregates come from
:func:`~repro.evaluation.metrics.case_outcome` and
:func:`~repro.evaluation.metrics.outcome_summary`, the same functions the
fleet sweep uses.

Absolute times are simulator cycles, not the paper's microseconds; only the
speedups and their ordering are meaningful for comparison.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.api.request import request_for_case
from repro.api.result import error_summary
from repro.api.session import AdvisingSession
from repro.evaluation.metrics import ROW_FIELDS, case_outcome, outcome_summary
from repro.pipeline.runner import ProgressCallback
from repro.workloads.base import BenchmarkCase
from repro.workloads.registry import all_cases

#: The two requests each case runs as, in this order.
VARIANTS = ("baseline", "optimized")


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

    @classmethod
    def from_outcome(cls, case: BenchmarkCase, outcome: dict) -> "Table3Row":
        """The row of a :func:`~repro.evaluation.metrics.case_outcome` dict."""
        return cls(case=case, **{name: outcome[name] for name in ROW_FIELDS})


@dataclass
class Table3Result:
    """All rows plus the aggregate statistics the paper reports."""

    rows: List[Table3Row] = field(default_factory=list)
    #: Cases that failed during a batch sweep, as (case_id, traceback) pairs;
    #: one bad case never kills the whole table.
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def summary(self) -> dict:
        """The four aggregates over :attr:`rows`, computed as the fleet
        merge computes them."""
        return outcome_summary([vars(row) for row in self.rows])

    @property
    def geomean_achieved(self) -> float:
        return self.summary()["geomean_achieved"]

    @property
    def geomean_estimated(self) -> float:
        return self.summary()["geomean_estimated"]

    @property
    def geomean_error(self) -> float:
        return self.summary()["geomean_error"]

    @property
    def mean_error(self) -> float:
        return self.summary()["mean_error"]


def evaluate_case(
    case: BenchmarkCase,
    sample_period: int = 8,
    session: Optional[AdvisingSession] = None,
) -> Table3Row:
    """Evaluate one Table 3 row: advise the baseline and the optimized variant.

    Runs on ``session`` (default: a fresh inline session with
    ``sample_period``) and raises
    :class:`~repro.api.result.AdvisingError` if either variant fails.
    """
    if session is None:
        session = AdvisingSession(sample_period=sample_period)
    baseline = session.report_for(request_for_case(case, "baseline"))
    optimized = session.report_for(request_for_case(case, "optimized"))
    return Table3Row.from_outcome(case, case_outcome(case, baseline, optimized))


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

    Each case runs as two advising requests, its baseline and then its
    optimized variant, through one :class:`AdvisingSession`:
    ``jobs > 1`` fans the requests across worker processes, ``cache_dir``
    replays previously simulated profiles from disk, ``arch_flag``
    retargets the sweep onto any registered architecture,
    ``simulation_scope`` selects the simulation engine (``"whole_gpu"``
    measures whole-kernel cycles across every SM instead of extrapolating
    one wave), and ``memory_model`` selects the memory system
    (``"hierarchy"`` services accesses through the coalescing L1/L2/DRAM
    model).  ``progress`` sees each request's events, so two pairs per
    case.  Per-case failures land in :attr:`Table3Result.failures` instead
    of aborting the sweep.
    """
    case_list = list(cases) if cases is not None else all_cases()
    session = AdvisingSession(
        architecture=arch_flag,
        sample_period=sample_period,
        cache=str(cache_dir) if cache_dir is not None else None,
        jobs=jobs,
        simulation_scope=simulation_scope,
        memory_model=memory_model,
    )
    # Per case: the position of its request pair, or the traceback of
    # building it (an ad-hoc case builds its binaries right here).
    requests = []
    slots: List[Union[int, str]] = []
    for case in case_list:
        try:
            pair = [
                request_for_case(case, variant, arch_flag=arch_flag)
                for variant in VARIANTS
            ]
        except Exception:
            slots.append(traceback.format_exc())
            continue
        slots.append(len(requests))
        requests.extend(pair)
    results = session.advise_many(requests, progress=progress)

    table = Table3Result()
    for case, slot in zip(case_list, slots):
        if isinstance(slot, str):
            table.failures.append((case.case_id, slot))
            continue
        baseline, optimized = results[slot : slot + 2]
        if not baseline.ok or not optimized.ok:
            failed = baseline if not baseline.ok else optimized
            table.failures.append((case.case_id, failed.error))
            continue
        outcome = case_outcome(case, baseline.report, optimized.report)
        table.rows.append(Table3Row.from_outcome(case, outcome))
    return table


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
                **{name: getattr(row, name) for name in ROW_FIELDS},
                "paper_achieved_speedup": row.case.paper_achieved_speedup,
                "paper_estimated_speedup": row.case.paper_estimated_speedup,
            }
            for row in result.rows
        ],
        "failures": [
            {"case": case_id, "error": error}
            for case_id, error in result.failures
        ],
        **result.summary(),
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

    from repro.arch.machine import architecture_flags
    from repro.sampling.memory import MEMORY_MODELS
    from repro.sampling.profiler import SIMULATION_SCOPES

    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.table3",
        description="Reproduce Table 3 over the full benchmark registry.",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--arch", default="sm_70", dest="arch_flag",
                        choices=architecture_flags(),
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
        step = f"{event.step} [{VARIANTS[event.index % 2]}]"
        print(f"  {step:55s} {status} ({event.duration:.2f}s)",
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
