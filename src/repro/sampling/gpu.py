"""The whole-GPU simulation engine.

The paper's profiler observes PC samples from *every* SM across the whole
kernel run; a single simulated wave on a single SM cannot see tail waves,
grid imbalance, or cross-SM variation.  :class:`GpuSimulator` closes that
gap: it dispatches the full grid across ``architecture.num_sms`` simulated
SMs in waves — each wave fills every SM up to its per-SM block residency
limit, the final (possibly partial) tail wave spreads its remaining blocks
round-robin so some SMs idle — runs one :class:`~repro.sampling.vector
.VectorSMSimulator` per occupied SM per wave, and merges the per-SM
:class:`~repro.sampling.simulator.SimulationResult` outputs into a single
whole-kernel aggregate.

Time is wave-synchronous: a wave's duration is the *maximum* cycle count of
its SMs (an SM that finishes its blocks early waits for the wave, exactly
the imbalance penalty the Warp/Grid balance optimizers reason about), and
the kernel duration is the sum of wave durations.  That replaces the
``wave_cycles * waves`` extrapolation of the single-wave scope with a
measured whole-kernel cycle count that includes tail-wave and imbalance
effects.  Everything stays deterministic: block dispatch, warp traces and
sampling depend only on the launch description, never on wall-clock state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.machine import GpuArchitecture
from repro.sampling.memory import MemoryStatistics
from repro.sampling.sample import PCSample
from repro.sampling.simulator import DEFAULT_MAX_CYCLES
from repro.sampling.stall_reasons import StallReason
from repro.sampling.trace import TraceOp
from repro.sampling.vector import VectorSMSimulator

#: A callable producing the dynamic trace of one warp, keyed by the warp's
#: *global* id (``block_id * warps_per_block + warp_in_block``).
TraceProvider = Callable[[int], List[TraceOp]]


@dataclass
class WaveStatistics:
    """Aggregate of one dispatch wave across all SMs it occupied."""

    #: Position of the wave in the dispatch sequence (0 = first).
    index: int
    #: Grid blocks dispatched in this wave.
    blocks: int
    #: SMs that received at least one block.
    occupied_sms: int
    #: Duration of the wave: the slowest occupied SM's cycle count.
    cycles: int
    #: Cycle count of the fastest occupied SM (idle-tail visibility).
    fastest_sm_cycles: int


@dataclass
class GpuSimulationResult:
    """Merged output of a whole-GPU simulation.

    Field-compatible with :class:`~repro.sampling.simulator
    .SimulationResult` for everything the profiler aggregates
    (``stall_counts``, ``issue_counts``, sample totals,
    ``issued_instructions``, ``samples``), plus the whole-kernel quantities
    only a multi-SM simulation can measure.
    """

    kernel: str
    #: Measured whole-kernel duration: the sum of per-wave maxima.
    kernel_cycles: int
    #: Duration of the first (full) wave — the quantity the single-wave
    #: scope reports, kept for comparison and for ``LaunchStatistics``.
    wave_cycles: int
    #: Per-wave dispatch statistics, in dispatch order.
    waves: List[WaveStatistics]
    #: (function, offset) -> {reason: latency sample count}, all SMs merged.
    stall_counts: Dict[Tuple[str, int], Dict[StallReason, int]]
    #: (function, offset) -> active (issue) sample count, all SMs merged.
    issue_counts: Dict[Tuple[str, int], int]
    active_samples: int
    latency_samples: int
    issued_instructions: int
    #: Total cycles walked by the per-SM simulators (the sum of every SM's
    #: cycle count across every wave) — the simulator-throughput
    #: denominator, as opposed to :attr:`kernel_cycles` which is wall time
    #: on the simulated GPU.
    simulated_sm_cycles: int = 0
    #: Raw samples (kept only when requested); cycles are rebased onto the
    #: whole-kernel timeline, ``sm_id`` identifies the simulated SM.
    samples: List[PCSample] = field(default_factory=list)
    #: Memory-hierarchy counters merged across every SM of every wave
    #: (``None`` under the flat memory model).
    memory: Optional[MemoryStatistics] = None

    @property
    def total_samples(self) -> int:
        return self.active_samples + self.latency_samples

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def tail_blocks(self) -> int:
        """Blocks dispatched in the final wave (== full capacity when the
        grid divides evenly)."""
        return self.waves[-1].blocks if self.waves else 0

    @property
    def extrapolated_kernel_cycles(self) -> float:
        """What the single-wave scope would have estimated from wave 0."""
        if not self.waves:
            return 0.0
        capacity = max(1, self.waves[0].blocks)
        total_blocks = sum(wave.blocks for wave in self.waves)
        return self.wave_cycles * (total_blocks / capacity)


class GpuSimulator:
    """Simulates every SM of the GPU across every dispatch wave."""

    def __init__(
        self,
        architecture: GpuArchitecture,
        sample_period: int = 32,
        keep_samples: bool = False,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        memory_model: str = "flat",
    ):
        self.architecture = architecture
        self.sample_period = sample_period
        self.keep_samples = keep_samples
        self.max_cycles = max_cycles
        self.memory_model = memory_model
        self._sm_simulator = VectorSMSimulator(
            architecture,
            sample_period=sample_period,
            keep_samples=keep_samples,
            max_cycles=max_cycles,
            memory_model=memory_model,
        )

    # ------------------------------------------------------------------
    def simulate(
        self,
        kernel: str,
        trace_for_warp: TraceProvider,
        grid_blocks: int,
        warps_per_block: int,
        blocks_per_sm: int,
    ) -> GpuSimulationResult:
        """Run the whole grid and return the merged kernel aggregate.

        ``blocks_per_sm`` is the per-SM residency cap from hardware
        resources (``OccupancyResult.blocks_per_sm_limit``), *not* the
        grid-clamped figure: grid-limited launches simply under-fill their
        single wave.
        """
        if grid_blocks < 1:
            raise ValueError("grid_blocks must be positive")
        if warps_per_block < 1:
            raise ValueError("warps_per_block must be positive")
        blocks_per_sm = max(1, blocks_per_sm)
        num_sms = self.architecture.num_sms
        capacity = num_sms * blocks_per_sm

        stall_counts: Dict[Tuple[str, int], Dict[StallReason, int]] = {}
        issue_counts: Dict[Tuple[str, int], int] = {}
        samples: List[PCSample] = []
        active_samples = 0
        latency_samples = 0
        issued_instructions = 0
        waves: List[WaveStatistics] = []
        kernel_cycles = 0
        first_wave_cycles = 0
        simulated_sm_cycles = 0
        memory = MemoryStatistics() if self.memory_model == "hierarchy" else None

        for wave_index in range(math.ceil(grid_blocks / capacity)):
            wave_start = wave_index * capacity
            wave_blocks = range(wave_start, min(grid_blocks, wave_start + capacity))
            # Round-robin dispatch spreads a partial tail wave across SMs the
            # way the hardware's greedy block scheduler would, leaving the
            # remaining SMs idle for the wave.
            blocks_of_sm: List[List[int]] = [[] for _ in range(num_sms)]
            for position, block in enumerate(wave_blocks):
                blocks_of_sm[position % num_sms].append(block)

            wave_cycles = 0
            fastest = None
            occupied = 0
            for sm_id, resident_blocks in enumerate(blocks_of_sm):
                if not resident_blocks:
                    continue
                occupied += 1
                traces: List[List[TraceOp]] = []
                block_of_warp: List[int] = []
                for local_block, block in enumerate(resident_blocks):
                    for warp_in_block in range(warps_per_block):
                        traces.append(
                            trace_for_warp(block * warps_per_block + warp_in_block)
                        )
                        block_of_warp.append(local_block)
                result = self._sm_simulator.simulate(
                    kernel, traces, block_of_warp, sm_id=sm_id
                )

                for key, reasons in result.stall_counts.items():
                    merged = stall_counts.setdefault(key, {})
                    for reason, count in reasons.items():
                        merged[reason] = merged.get(reason, 0) + count
                for key, count in result.issue_counts.items():
                    issue_counts[key] = issue_counts.get(key, 0) + count
                active_samples += result.active_samples
                latency_samples += result.latency_samples
                issued_instructions += result.issued_instructions
                simulated_sm_cycles += result.wave_cycles
                if memory is not None and result.memory is not None:
                    memory.merge(result.memory)
                if self.keep_samples:
                    samples.extend(
                        replace(sample, cycle=sample.cycle + kernel_cycles)
                        for sample in result.samples
                    )

                if result.wave_cycles > wave_cycles:
                    wave_cycles = result.wave_cycles
                if fastest is None or result.wave_cycles < fastest:
                    fastest = result.wave_cycles

            waves.append(
                WaveStatistics(
                    index=wave_index,
                    blocks=len(wave_blocks),
                    occupied_sms=occupied,
                    cycles=wave_cycles,
                    fastest_sm_cycles=fastest or 0,
                )
            )
            if wave_index == 0:
                first_wave_cycles = wave_cycles
            kernel_cycles += wave_cycles

        return GpuSimulationResult(
            kernel=kernel,
            kernel_cycles=kernel_cycles,
            wave_cycles=first_wave_cycles,
            waves=waves,
            stall_counts=stall_counts,
            issue_counts=issue_counts,
            active_samples=active_samples,
            latency_samples=latency_samples,
            issued_instructions=issued_instructions,
            simulated_sm_cycles=simulated_sm_cycles,
            samples=samples,
            memory=memory,
        )
