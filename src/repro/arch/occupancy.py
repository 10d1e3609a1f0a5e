"""Occupancy calculation.

The parallel optimizers (Block Increase, Thread Increase) need to know how
many blocks and warps a kernel launch places on each SM, and what limits the
occupancy: registers per thread, shared memory per block, the block-count
limit, or the warp-count limit.  This module reproduces the standard CUDA
occupancy calculation for those purposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.machine import GpuArchitecture


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy of one kernel launch on one architecture."""

    #: Thread blocks resident per SM.
    blocks_per_sm: int
    #: Warps resident per SM.
    warps_per_sm: int
    #: Warps per scheduler (resident warps / schedulers per SM).
    warps_per_scheduler: float
    #: Fraction of the hardware warp-slot limit that is occupied.
    occupancy: float
    #: Which resource limits occupancy: ``"registers"``, ``"shared_memory"``,
    #: ``"blocks"``, ``"warps"`` or ``"grid"`` (too few blocks in the grid).
    limiter: str
    #: Total blocks in the grid.
    grid_blocks: int
    #: Number of "waves" needed to run the whole grid.
    waves: float
    #: Blocks each SM can hold at once from hardware resources alone (the
    #: per-SM residency cap *before* clamping by the grid size).  This is the
    #: dispatch capacity the whole-GPU engine schedules waves with; equals
    #: ``blocks_per_sm`` unless the launch is grid-limited.
    blocks_per_sm_limit: int = 0

    @property
    def is_grid_limited(self) -> bool:
        """True when the grid is too small to fill the GPU even once."""
        return self.limiter == "grid"


class OccupancyCalculator:
    """Computes occupancy for kernel launches on a given architecture."""

    def __init__(self, architecture: GpuArchitecture):
        self.architecture = architecture

    def blocks_per_sm_limit(
        self,
        threads_per_block: int,
        registers_per_thread: int,
        shared_memory_per_block: int,
    ) -> tuple:
        """Return (blocks_per_sm, limiter) imposed by hardware resources."""
        arch = self.architecture
        if threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        if threads_per_block > arch.max_threads_per_block:
            raise ValueError(
                f"threads_per_block {threads_per_block} exceeds the architecture "
                f"limit of {arch.max_threads_per_block}"
            )

        warps_per_block = math.ceil(threads_per_block / arch.warp_size)

        limits = {}
        limits["warps"] = arch.max_warps_per_sm // warps_per_block
        limits["blocks"] = arch.max_blocks_per_sm

        if registers_per_thread > 0:
            unit = arch.register_allocation_unit
            regs_per_warp = registers_per_thread * arch.warp_size
            regs_per_warp = math.ceil(regs_per_warp / unit) * unit
            regs_per_block = regs_per_warp * warps_per_block
            limits["registers"] = arch.registers_per_sm // regs_per_block if regs_per_block else limits["blocks"]
        else:
            limits["registers"] = limits["blocks"]

        if shared_memory_per_block > 0:
            unit = arch.shared_memory_allocation_unit
            smem = math.ceil(shared_memory_per_block / unit) * unit
            limits["shared_memory"] = arch.shared_memory_per_sm // smem
        else:
            limits["shared_memory"] = limits["blocks"]

        limiter = min(limits, key=lambda key: limits[key])
        blocks = max(0, limits[limiter])
        return blocks, limiter

    def calculate(
        self,
        grid_blocks: int,
        threads_per_block: int,
        registers_per_thread: int = 32,
        shared_memory_per_block: int = 0,
    ) -> OccupancyResult:
        """Compute the occupancy of a launch configuration."""
        arch = self.architecture
        blocks_limit, limiter = self.blocks_per_sm_limit(
            threads_per_block, registers_per_thread, shared_memory_per_block
        )
        if blocks_limit == 0:
            raise ValueError(
                "launch configuration exceeds per-SM resources; no block fits"
            )

        warps_per_block = math.ceil(threads_per_block / arch.warp_size)

        # Blocks actually available to each SM given the grid size.
        blocks_from_grid = math.ceil(grid_blocks / arch.num_sms)
        blocks_per_sm = min(blocks_limit, blocks_from_grid)
        if blocks_from_grid < blocks_limit:
            limiter = "grid"

        warps_per_sm = blocks_per_sm * warps_per_block
        warps_per_scheduler = warps_per_sm / arch.schedulers_per_sm
        occupancy = warps_per_sm / arch.max_warps_per_sm
        waves = grid_blocks / (blocks_limit * arch.num_sms)

        return OccupancyResult(
            blocks_per_sm=blocks_per_sm,
            warps_per_sm=warps_per_sm,
            warps_per_scheduler=warps_per_scheduler,
            occupancy=occupancy,
            limiter=limiter,
            grid_blocks=grid_blocks,
            waves=waves,
            blocks_per_sm_limit=blocks_limit,
        )
