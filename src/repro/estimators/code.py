"""Code-optimization estimators (Section 5.2.1).

All quantities are sample counts from one kernel profile:

* ``T`` — total samples,
* ``A`` — active samples,
* ``L = T - A`` — latency samples,
* ``M`` — samples matched by a stall-elimination optimizer,
* ``M_L`` — latency samples matched by a latency-hiding optimizer.

Stall elimination assumes the matched stalls can at best be removed entirely
(Equation 2).  Latency hiding assumes matched latency samples can at best be
covered by moving *active* work into the stall slots, so the benefit is
bounded by the available active samples (Equation 4) — and therefore by 2x
overall (Theorem 5.1).  Optimizations that only rearrange code within a
scope (a loop or function) can only use the active samples of that scope
(Equation 5).
"""

from __future__ import annotations

from typing import Iterable, Mapping


def _guarded_ratio(total: float, removed: float) -> float:
    """``total / (total - removed)`` guarded against degenerate inputs."""
    if total <= 0:
        return 1.0
    removed = min(max(removed, 0.0), total - 1e-9) if removed < total else total - 1e-9
    removed = max(removed, 0.0)
    return total / (total - removed)


def stall_elimination_speedup(total_samples: float, matched_stalls: float) -> float:
    """Equation 2: ``S_e = T / (T - M)``."""
    if total_samples <= 0:
        return 1.0
    matched = min(max(matched_stalls, 0.0), total_samples)
    return _guarded_ratio(total_samples, matched)


def latency_hiding_speedup(
    total_samples: float, active_samples: float, matched_latency_samples: float
) -> float:
    """Equation 4: ``S_h = T / (T - min(A, M_L))``.

    Equation 3 (``T / (T - M_L)``) is the unrefined kernel-level version; the
    refinement accounts for the fact that only active work can be moved into
    stall slots (Figure 6).
    """
    if total_samples <= 0:
        return 1.0
    matched = min(max(matched_latency_samples, 0.0), total_samples)
    active = max(active_samples, 0.0)
    return _guarded_ratio(total_samples, min(active, matched))


def latency_hiding_upper_bound() -> float:
    """Theorem 5.1: the speedup of latency-hiding optimizations is at most 2x."""
    return 2.0


def scoped_latency_hiding_speedup(
    total_samples: float,
    scope_active_samples: Iterable[float],
    matched_latency_samples: float,
) -> float:
    """Equation 5: latency hiding limited to one scope.

    ``scope_active_samples`` are the active samples of the scope and of every
    scope nested inside it (the optimizer may only rearrange code within that
    region); ``matched_latency_samples`` are the matched latency samples of
    the scope.
    """
    if total_samples <= 0:
        return 1.0
    available_active = sum(max(value, 0.0) for value in scope_active_samples)
    matched = min(max(matched_latency_samples, 0.0), total_samples)
    return _guarded_ratio(total_samples, min(available_active, matched))


def combined_scoped_speedup(
    total_samples: float,
    per_scope: Mapping[object, tuple],
) -> float:
    """Aggregate Equation 5 over several disjoint scopes.

    ``per_scope`` maps a scope identifier to ``(active_in_scope,
    matched_latency_in_scope)``.  The hidden latency of each scope is
    ``min(active, matched)``; the aggregate speedup removes the sum of the
    hidden latencies (never more than the total latency of the kernel).
    """
    if total_samples <= 0:
        return 1.0
    hidden = 0.0
    for active, matched in per_scope.values():
        hidden += min(max(active, 0.0), max(matched, 0.0))
    return _guarded_ratio(total_samples, min(hidden, total_samples))
