"""End-to-end integration tests reproducing the paper's headline behaviours."""

from repro.advisor.report import render_report
from repro.api.request import request_for_case
from repro.evaluation.table3 import evaluate_case
from repro.workloads.registry import case_by_name


def test_hotspot_listing1_strength_reduction():
    """Listing 1: hotspot's double-constant multiply is traced to conversions
    and the Strength Reduction fix yields a real speedup."""
    row = evaluate_case(case_by_name("rodinia/hotspot:strength_reduction"))
    assert row.achieved_speedup > 1.05
    assert row.optimizer_rank is not None and row.optimizer_rank <= 5


def test_btree_listing2_code_reordering(session):
    """Listing 2: b+tree's short load-to-use distance is matched by Code
    Reordering and widening the distance speeds the kernel up."""
    case = case_by_name("rodinia/b+tree:code_reorder")
    report = session.report_for(request_for_case(case))
    advice = report.advice_for("GPUCodeReorderingOptimizer")
    assert advice.applicable and advice.matched_samples > 0
    row = evaluate_case(case)
    # Reordering only moves a handful of independent operations, so the real
    # gain is small (the paper reports 1.15x; our simulated warps already
    # hide most of the latency) — but it must not be a slowdown.
    assert row.achieved_speedup >= 1.0


def test_exatensor_case_study_sequence():
    """Section 7.1: strength reduction first, then memory transaction
    reduction on the updated code — both steps give real speedups."""
    first = evaluate_case(case_by_name("ExaTENSOR:strength_reduction"))
    second = evaluate_case(case_by_name("ExaTENSOR:memory_transaction_reduction"))
    # Each step is at worst neutral and the transaction-reduction step (which
    # relieves the memory-throttle bottleneck) is a clear win.
    assert first.achieved_speedup >= 0.98
    assert second.achieved_speedup > 1.05
    assert first.optimizer_rank is not None
    assert second.optimizer_rank is not None


def test_every_advice_report_is_renderable(session):
    for name in ("rodinia/nw:warp_balance", "PeleC:block_increase",
                 "Minimod:fast_math"):
        case = case_by_name(name)
        report = session.report_for(request_for_case(case))
        text = render_report(report)
        assert case.kernel in text
        assert "estimate speedup" in text


def test_speedups_follow_the_paper_shape():
    """Every applied optimization helps (>= 1x) and the biggest win is the
    parallel (thread increase) case, as in Table 3."""
    names = [
        "rodinia/gaussian:thread_increase",
        "rodinia/backprop:warp_balance",
        "rodinia/hotspot:strength_reduction",
        "rodinia/particlefilter:block_increase",
    ]
    rows = {name: evaluate_case(case_by_name(name)) for name in names}
    for row in rows.values():
        assert row.achieved_speedup >= 0.98
    gaussian = rows["rodinia/gaussian:thread_increase"]
    assert gaussian.achieved_speedup == max(r.achieved_speedup for r in rows.values())
