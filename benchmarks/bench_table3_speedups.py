"""Table 3: achieved vs. estimated speedups.

``pytest benchmarks/bench_table3_speedups.py --benchmark-only`` regenerates
the table.  By default a representative subset covering every optimizer is
evaluated (the full 26-row sweep takes a few minutes; enable it with
``--full-table3``).  The reproduced rows are printed next to the paper's
achieved/estimated numbers.  ``python -m repro.evaluation.table3`` prints
the full comparison, and docs/EVALUATION.md describes the sweeps that
record it.
"""

from __future__ import annotations

import pytest

from repro.evaluation.table3 import evaluate_table3, format_table3
from repro.workloads.registry import all_cases, case_by_name

#: One case per optimizer: the representative subset benchmarked by default.
REPRESENTATIVE_CASES = [
    "rodinia/hotspot:strength_reduction",
    "rodinia/backprop:warp_balance",
    "rodinia/kmeans:loop_unrolling",
    "rodinia/b+tree:code_reorder",
    "rodinia/cfd:fast_math",
    "rodinia/gaussian:thread_increase",
    "rodinia/particlefilter:block_increase",
    "rodinia/myocyte:function_splitting",
    "Quicksilver:function_inlining",
    "Quicksilver:register_reuse",
    "ExaTENSOR:memory_transaction_reduction",
]


def test_table3_speedups(benchmark, full_table3):
    cases = (
        all_cases()
        if full_table3
        else [case_by_name(name) for name in REPRESENTATIVE_CASES]
    )

    result = benchmark.pedantic(evaluate_table3, args=(cases,), iterations=1, rounds=1)

    print()
    print(format_table3(result))
    print(
        f"\nReproduced geomean achieved {result.geomean_achieved:.2f}x "
        f"(paper: 1.22x), estimated {result.geomean_estimated:.2f}x (paper: 1.26x), "
        f"mean estimate error {result.mean_error * 100:.1f}%"
    )

    # Shape checks corresponding to the paper's headline claims: no applied
    # optimization is a real slowdown, the aggregate speedup is positive, and
    # the thread-increase (gaussian) case is one of the largest wins.
    assert all(row.achieved_speedup >= 0.95 for row in result.rows)
    assert result.geomean_achieved > 1.05
    by_name = {row.case.case_id: row for row in result.rows}
    gaussian = by_name.get("rodinia/gaussian:thread_increase")
    if gaussian is not None:
        assert gaussian.achieved_speedup > 2.0
