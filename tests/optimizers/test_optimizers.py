"""Tests for the Table 2 optimizers and their matching rules.

Each optimizer is exercised against the benchmark kernel engineered to
exhibit its inefficiency; the advice must be applicable, match a non-trivial
share of the samples, and estimate a speedup above 1x.  Kernels *without*
the inefficiency must not be matched spuriously.
"""

import pytest

from repro.api.request import request_for_case
from repro.optimizers.base import AnalysisContext, OptimizerCategory
from repro.optimizers.registry import OptimizerRegistry, default_optimizers
from repro.optimizers.stall_elimination import WarpBalanceOptimizer
from repro.optimizers.parallel import BlockIncreaseOptimizer, ThreadIncreaseOptimizer
from repro.workloads.registry import case_by_name


def report_for(session, case_name):
    case = case_by_name(case_name)
    return case, session.report_for(request_for_case(case))


class TestRegistry:
    def test_default_registry_has_twelve_optimizers(self):
        # Table 2's eleven plus the Memory Coalescing optimizer.
        assert len(OptimizerRegistry()) == 12

    def test_names_match_table2(self):
        names = {optimizer.name for optimizer in default_optimizers()}
        assert {
            "GPURegisterReuseOptimizer", "GPUStrengthReductionOptimizer",
            "GPUFunctionSplitOptimizer", "GPUFastMathOptimizer",
            "GPUWarpBalanceOptimizer", "GPUMemoryTransactionReductionOptimizer",
            "GPULoopUnrollingOptimizer", "GPUCodeReorderingOptimizer",
            "GPUFunctionInliningOptimizer", "GPUBlockIncreaseOptimizer",
            "GPUThreadIncreaseOptimizer", "GPUMemoryCoalescingOptimizer",
        } == names

    def test_register_and_unregister_custom_optimizer(self):
        registry = OptimizerRegistry()

        class CustomOptimizer(WarpBalanceOptimizer):
            name = "GPUTextureFetchCombinationOptimizer"

        registry.register(CustomOptimizer())
        assert "GPUTextureFetchCombinationOptimizer" in registry
        registry.unregister("GPUTextureFetchCombinationOptimizer")
        assert "GPUTextureFetchCombinationOptimizer" not in registry

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            OptimizerRegistry().get("missing")


class TestStallEliminationMatching:
    @pytest.mark.parametrize(
        "case_name,category",
        [
            ("rodinia/hotspot:strength_reduction", OptimizerCategory.STALL_ELIMINATION),
            ("rodinia/backprop:warp_balance", OptimizerCategory.STALL_ELIMINATION),
            ("rodinia/cfd:fast_math", OptimizerCategory.STALL_ELIMINATION),
            ("Quicksilver:register_reuse", OptimizerCategory.STALL_ELIMINATION),
            ("rodinia/myocyte:function_splitting", OptimizerCategory.STALL_ELIMINATION),
            ("ExaTENSOR:memory_transaction_reduction", OptimizerCategory.STALL_ELIMINATION),
        ],
    )
    def test_expected_optimizer_matches_with_speedup(self, session, case_name, category):
        case, report = report_for(session, case_name)
        advice = report.advice_for(case.optimizer_name)
        assert advice is not None and advice.applicable
        assert advice.category is category
        assert advice.matched_samples > 0
        assert advice.estimated_speedup > 1.0

    def test_memory_transaction_reduction_matches_throttled_kernel(self, session):
        case, report = report_for(session, "ExaTENSOR:memory_transaction_reduction")
        advice = report.advice_for(case.optimizer_name)
        assert advice.matched_samples > 0
        assert advice.estimated_speedup > 1.0

    def test_function_split_matches_icache_bound_kernel(self, session):
        case, report = report_for(session, "rodinia/myocyte:function_splitting")
        advice = report.advice_for("GPUFunctionSplitOptimizer")
        assert advice.matched_samples > 0

    def test_warp_balance_not_matched_without_barriers(self, session):
        _case, report = report_for(session, "rodinia/kmeans:loop_unrolling")
        advice = report.advice_for("GPUWarpBalanceOptimizer")
        assert advice.matched_samples == 0
        assert advice.estimated_speedup == pytest.approx(1.0)

    def test_register_reuse_not_matched_without_spills(self, session):
        _case, report = report_for(session, "rodinia/hotspot:strength_reduction")
        advice = report.advice_for("GPURegisterReuseOptimizer")
        assert advice.matched_samples == 0


class TestLatencyHidingMatching:
    def test_loop_unrolling_matches_in_loop_dependences(self, session):
        case, report = report_for(session, "rodinia/kmeans:loop_unrolling")
        advice = report.advice_for(case.optimizer_name)
        assert advice.applicable and advice.matched_samples > 0
        assert 1.0 < advice.estimated_speedup <= 2.0
        assert advice.details["loops"]

    def test_code_reordering_reports_short_distances(self, session):
        case, report = report_for(session, "rodinia/b+tree:code_reorder")
        advice = report.advice_for(case.optimizer_name)
        assert advice.applicable and advice.hotspots
        assert any(h.distance is not None and h.distance <= 4 for h in advice.hotspots)
        assert advice.estimated_speedup <= 2.0

    def test_function_inlining_matches_device_function_stalls(self, session):
        case, report = report_for(session, "Quicksilver:function_inlining")
        advice = report.advice_for(case.optimizer_name)
        assert advice.matched_samples > 0
        assert any(h.source.function != case.kernel for h in advice.hotspots)

    def test_latency_hiding_respects_theorem_bound(self, session):
        for name in ("rodinia/kmeans:loop_unrolling", "rodinia/lud:code_reorder"):
            _case, report = report_for(session, name)
            for advice in report.advice:
                if advice.category is OptimizerCategory.LATENCY_HIDING:
                    assert advice.estimated_speedup <= 2.0 + 1e-9


class TestParallelMatching:
    def test_block_increase_applicable_only_for_small_grids(self, session):
        case, report = report_for(session, "rodinia/particlefilter:block_increase")
        advice = report.advice_for(case.optimizer_name)
        assert advice.applicable and advice.estimated_speedup > 1.3
        assert advice.details["current_grid_blocks"] < advice.details["num_sms"]

        _case2, big_grid_report = report_for(session, "rodinia/kmeans:loop_unrolling")
        not_applicable = big_grid_report.advice_for("GPUBlockIncreaseOptimizer")
        assert not not_applicable.applicable

    def test_thread_increase_applicable_for_tiny_blocks(self, session):
        case, report = report_for(session, "rodinia/gaussian:thread_increase")
        advice = report.advice_for(case.optimizer_name)
        assert advice.applicable
        assert advice.estimated_speedup > 2.0
        assert advice.details["proposed_threads_per_block"] >= 128

    def test_thread_increase_not_applicable_for_large_blocks(self, session):
        _case, report = report_for(session, "rodinia/hotspot:strength_reduction")
        advice = report.advice_for("GPUThreadIncreaseOptimizer")
        assert not advice.applicable


class TestAdviceRanking:
    @pytest.mark.parametrize(
        "case_name,max_rank",
        [
            ("rodinia/backprop:warp_balance", 3),
            ("rodinia/gaussian:thread_increase", 2),
            ("rodinia/hotspot:strength_reduction", 5),
            ("rodinia/particlefilter:block_increase", 2),
            ("ExaTENSOR:memory_transaction_reduction", 3),
            ("Quicksilver:register_reuse", 3),
            ("rodinia/b+tree:code_reorder", 3),
            ("Quicksilver:function_inlining", 3),
        ],
    )
    def test_expected_optimizer_in_top_suggestions(self, session, case_name, max_rank):
        """The paper applies one of GPA's top-5 suggestions for every kernel."""
        case, report = report_for(session, case_name)
        applicable = [item.optimizer for item in report.advice if item.applicable]
        assert case.optimizer_name in applicable[:max_rank]
        assert report.advice_for(case.optimizer_name).estimated_speedup >= 1.0
