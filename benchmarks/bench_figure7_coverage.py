"""Figure 7: single-dependency coverage before and after pruning cold edges."""

from __future__ import annotations

from repro.evaluation.figure7 import FIGURE7_CASES, evaluate_figure7, format_figure7
from repro.workloads.registry import case_by_name


def test_figure7_single_dependency_coverage(benchmark):
    cases = [case_by_name(name) for name in FIGURE7_CASES]
    rows = benchmark.pedantic(evaluate_figure7, args=(cases,), iterations=1, rounds=1)

    print()
    print(format_figure7(rows))

    by_name = {row.benchmark: row for row in rows}
    # Pruning never hurts coverage and lifts the average markedly.
    assert all(row.coverage_after >= row.coverage_before for row in rows)
    mean_after = sum(row.coverage_after for row in rows) / len(rows)
    assert mean_after >= 0.7
    # Most benchmarks end above 0.8 after pruning (the paper's observation).
    high = sum(1 for row in rows if row.coverage_after >= 0.8)
    assert high >= len(rows) // 2
