"""Shared evaluation metrics and the one Table 3 computation.

Every Table 3 number is built here, whichever harness asks for it:
:func:`case_outcome` turns the advice reports of a case's two variants into
one row, and :func:`outcome_summary` folds rows into the four aggregates.
:func:`~repro.evaluation.table3.evaluate_table3`,
:func:`~repro.evaluation.table3.evaluate_case` and the fleet's
:func:`~repro.evaluation.fleet.runner.evaluate_unit` all call them, so the
serial table and a fleet merge cannot drift apart.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

#: The floor each row's estimate error is raised to before the error
#: geomean, so one perfect estimate cannot zero out the aggregate.
ERROR_FLOOR = 1e-4

#: The numbers of one Table 3 row, in the order every artifact lists them.
#: All deterministic; anything timing-shaped stays out by design.
ROW_FIELDS = (
    "baseline_cycles",
    "optimized_cycles",
    "achieved_speedup",
    "estimated_speedup",
    "error",
    "optimizer_rank",
    "total_samples",
)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (1.0 for an empty sequence).

    Sums with :func:`math.fsum`, which rounds once, so the aggregate has
    the same last digit under every Python version (3.12 made the builtin
    ``sum()`` of floats compensated).
    """
    values = [float(v) for v in values if v > 0]
    if not values:
        return 1.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def relative_error(estimated: float, achieved: float) -> float:
    """The paper's estimate error: ``|estimated - achieved| / achieved``."""
    if achieved == 0:
        return 0.0
    return abs(estimated - achieved) / abs(achieved)


def case_outcome(case, baseline, optimized) -> dict:
    """One Table 3 row as a plain dict: ``case_id`` plus :data:`ROW_FIELDS`.

    ``case`` is the :class:`~repro.workloads.base.BenchmarkCase`;
    ``baseline`` and ``optimized`` are the
    :class:`~repro.advisor.report.AdviceReport` objects of its two
    variants.  The *achieved* speedup is the ratio of their kernel cycles,
    the *estimated* one is the matched optimizer's estimate on the
    baseline, and the rank is that optimizer's position among the
    applicable suggestions (``None`` when it does not apply).
    """
    baseline_cycles = baseline.profile.statistics.kernel_cycles
    optimized_cycles = optimized.profile.statistics.kernel_cycles
    achieved = baseline_cycles / optimized_cycles if optimized_cycles else 1.0

    advice = baseline.advice_for(case.optimizer_name)
    estimated = advice.estimated_speedup if advice is not None else 1.0
    applicable = [item.optimizer for item in baseline.advice if item.applicable]
    rank = (
        applicable.index(case.optimizer_name) + 1
        if case.optimizer_name in applicable
        else None
    )
    return {
        "case_id": case.case_id,
        "baseline_cycles": baseline_cycles,
        "optimized_cycles": optimized_cycles,
        "achieved_speedup": achieved,
        "estimated_speedup": estimated,
        "error": relative_error(estimated, achieved),
        "optimizer_rank": rank,
        "total_samples": baseline.profile.total_samples,
    }


def outcome_summary(outcomes: Sequence[Mapping[str, float]]) -> dict:
    """The aggregates of Table 3 rows (:func:`case_outcome` dicts).

    Every aggregate is a geometric mean except ``mean_error``, the
    arithmetic mean of the unfloored errors.
    """
    errors = [outcome["error"] for outcome in outcomes]
    return {
        "geomean_achieved": geometric_mean(
            outcome["achieved_speedup"] for outcome in outcomes
        ),
        "geomean_estimated": geometric_mean(
            outcome["estimated_speedup"] for outcome in outcomes
        ),
        "geomean_error": geometric_mean(max(error, ERROR_FLOOR) for error in errors),
        "mean_error": math.fsum(errors) / len(errors) if errors else 0.0,
    }
