"""Parallel optimizers (the bottom of Table 2).

Parallel optimizers adjust the launch configuration rather than the code:

* **Block Increase** matches when the grid has fewer blocks than the GPU has
  SMs (most of the machine is idle).  It proposes either splitting the same
  total work across more blocks or reshaping blocks (fewer threads per
  block, more blocks), and estimates the effect with the parallel estimator
  (Equations 6-10).
* **Thread Increase** matches when occupancy is limited by the number of
  threads per block (tiny blocks leave warp slots unused and pad warps with
  idle lanes).  It proposes a larger block size with the grid shrunk to keep
  the total thread count.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.estimators.parallel import ParallelEstimate, ParallelEstimator
from repro.optimizers.base import AnalysisContext, OptimizationAdvice, Optimizer, OptimizerCategory
from repro.sampling.sample import LaunchConfig


def _estimate_details(estimate: ParallelEstimate) -> dict:
    return {
        "proposed_grid_blocks": estimate.new_config.grid_blocks,
        "proposed_threads_per_block": estimate.new_config.threads_per_block,
        "cw": estimate.cw,
        "ci": estimate.ci,
        "f": estimate.f,
        "issue_rate": estimate.issue_rate,
        "new_issue_rate": estimate.new_issue_rate,
        "new_warps_per_scheduler": estimate.new_warps_per_scheduler,
    }


class BlockIncreaseOptimizer(Optimizer):
    """Match if the number of blocks is less than the number of SMs."""

    name = "GPUBlockIncreaseOptimizer"
    category = OptimizerCategory.PARALLEL
    description = "The grid has fewer blocks than the GPU has SMs"
    suggestions = (
        "The kernel does not launch enough thread blocks to occupy every SM.",
        "1. Increase the number of blocks by splitting the per-block work "
        "(each block processes a smaller tile).",
        "2. Alternatively reduce the number of threads per block while "
        "increasing the number of blocks so more SMs receive work.",
    )

    def __init__(self, estimator: Optional[ParallelEstimator] = None):
        self._estimator = estimator

    def match(self, context: AnalysisContext) -> OptimizationAdvice:
        stats = context.profile.statistics
        config = stats.config
        num_sms = context.architecture.num_sms
        if config.grid_blocks >= num_sms:
            return self._advice(context, 0.0, 1.0, applicable=False)

        estimator = self._estimator or ParallelEstimator(context.architecture)

        candidates: List[Tuple[ParallelEstimate, float, str]] = []

        # Candidate 1: split the same total work across enough blocks to give
        # every SM at least one block (work per block shrinks, total work is
        # unchanged).
        split_blocks = min(num_sms, max(config.grid_blocks * 2, num_sms))
        split_config = LaunchConfig(
            split_blocks, config.threads_per_block, config.shared_memory_bytes
        )
        candidates.append(
            (
                estimator.estimate(context.profile, split_config, total_work_factor=1.0),
                1.0,
                "split work across more blocks",
            )
        )

        # Candidate 2: reshape blocks — halve the threads per block, double
        # the number of blocks (total threads unchanged).
        if config.threads_per_block >= 2 * context.architecture.warp_size:
            reshaped = LaunchConfig(
                config.grid_blocks * 2,
                config.threads_per_block // 2,
                config.shared_memory_bytes,
            )
            candidates.append(
                (
                    estimator.estimate(context.profile, reshaped),
                    None,
                    "reduce threads per block and double the number of blocks",
                )
            )

        best_estimate, _work, strategy = max(candidates, key=lambda item: item[0].speedup)
        # The matched samples of a parallel optimizer are the samples the
        # idle-SM condition wastes; report the latency samples as the match so
        # the ratio column is meaningful.
        matched = float(context.latency_samples)
        details = _estimate_details(best_estimate)
        details["strategy"] = strategy
        details["current_grid_blocks"] = config.grid_blocks
        details["num_sms"] = num_sms
        return self._advice(
            context, matched, best_estimate.speedup, hotspots=[], details=details
        )


class ThreadIncreaseOptimizer(Optimizer):
    """Match if occupancy is limited by the number of threads per block."""

    name = "GPUThreadIncreaseOptimizer"
    category = OptimizerCategory.PARALLEL
    description = "Occupancy is limited by a small thread-block size"
    suggestions = (
        "Each block has too few threads: the per-SM block-count limit caps "
        "occupancy and narrow blocks pad warps with idle lanes.",
        "1. Increase the number of threads per block (e.g. to 128-256) and "
        "shrink the grid so the total thread count is unchanged.",
        "2. If the block shape is 2-D, widen the fastest-varying dimension to "
        "a multiple of the warp size.",
    )

    #: Proposed block size when the optimizer applies.
    target_threads_per_block = 256

    def __init__(self, estimator: Optional[ParallelEstimator] = None):
        self._estimator = estimator

    def match(self, context: AnalysisContext) -> OptimizationAdvice:
        stats = context.profile.statistics
        config = stats.config
        arch = context.architecture

        limited_by_blocks = stats.occupancy_limiter == "blocks"
        tiny_blocks = config.threads_per_block < 2 * arch.warp_size
        if not (limited_by_blocks or tiny_blocks):
            return self._advice(context, 0.0, 1.0, applicable=False)

        estimator = self._estimator or ParallelEstimator(context.architecture)
        new_threads = min(self.target_threads_per_block, arch.max_threads_per_block)
        total_threads = config.grid_blocks * config.threads_per_block
        new_blocks = max(1, math.ceil(total_threads / new_threads))
        new_config = LaunchConfig(new_blocks, new_threads, config.shared_memory_bytes)

        estimate = estimator.estimate(context.profile, new_config)
        matched = float(context.latency_samples)
        details = _estimate_details(estimate)
        details["current_threads_per_block"] = config.threads_per_block
        details["occupancy_limiter"] = stats.occupancy_limiter
        return self._advice(
            context, matched, estimate.speedup, hotspots=[], details=details
        )
