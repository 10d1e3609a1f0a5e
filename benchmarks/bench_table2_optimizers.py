"""Table 2: every optimizer matches its inefficiency pattern.

This bench runs the full dynamic-analysis pipeline (blame + all eleven
optimizers) on a kernel engineered to trigger each optimizer and reports the
matched ratio and estimated speedup per optimizer — the catalogue of Table 2
in executable form.  The benchmark timing measures one full dynamic-analysis
pass.
"""

from __future__ import annotations

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession

#: Optimizer -> the benchmark whose baseline it should match.
OPTIMIZER_SHOWCASES = {
    "GPURegisterReuseOptimizer": "Quicksilver:register_reuse",
    "GPUStrengthReductionOptimizer": "rodinia/hotspot:strength_reduction",
    "GPUFunctionSplitOptimizer": "rodinia/myocyte:function_splitting",
    "GPUFastMathOptimizer": "rodinia/cfd:fast_math",
    "GPUWarpBalanceOptimizer": "rodinia/backprop:warp_balance",
    "GPUMemoryTransactionReductionOptimizer": "ExaTENSOR:memory_transaction_reduction",
    "GPULoopUnrollingOptimizer": "rodinia/kmeans:loop_unrolling",
    "GPUCodeReorderingOptimizer": "rodinia/b+tree:code_reorder",
    "GPUFunctionInliningOptimizer": "Quicksilver:function_inlining",
    "GPUBlockIncreaseOptimizer": "rodinia/particlefilter:block_increase",
    "GPUThreadIncreaseOptimizer": "rodinia/gaussian:thread_increase",
}


def test_table2_optimizer_catalogue(benchmark):
    session = AdvisingSession(sample_period=8)

    def analyze_one():
        return session.report_for(request_for_case("rodinia/hotspot:strength_reduction"))

    benchmark.pedantic(analyze_one, iterations=1, rounds=3)

    print()
    header = f"{'Optimizer':42s} {'Showcase':42s} {'Ratio':>8s} {'Estimate':>9s}"
    print(header)
    print("-" * len(header))
    for optimizer_name, case_name in OPTIMIZER_SHOWCASES.items():
        report = session.report_for(request_for_case(case_name))
        advice = report.advice_for(optimizer_name)
        print(
            f"{optimizer_name:42s} {case_name:42s} "
            f"{advice.ratio * 100:7.2f}% {advice.estimated_speedup:8.2f}x"
        )
        assert advice is not None
        assert advice.applicable
        assert advice.estimated_speedup >= 1.0
