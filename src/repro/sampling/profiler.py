"""The profiler facade.

The paper's profiler collects PC samples and kernel launch statistics at
runtime, attributes them to the launch context, and dumps profiles plus
CUBINs for offline analysis.  Our :class:`Profiler` plays the same role on
top of the simulator: given a CUBIN, a kernel, a launch configuration and a
workload specification it

1. recovers the program structure (the static-analysis pre-pass it shares
   with the advisor),
2. computes the occupancy of the launch,
3. generates per-warp traces and simulates the launch — either one
   representative wave on one SM (``simulation_scope="single_wave"``, the
   fast default) or the full grid across every SM in dispatch waves
   (``simulation_scope="whole_gpu"``, which *measures* tail-wave and
   cross-SM imbalance effects instead of extrapolating),
4. aggregates the samples into a :class:`~repro.sampling.sample.KernelProfile`
   with launch statistics attached, and
5. can dump/load profiles as JSON for offline analysis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.arch.machine import GpuArchitecture, VoltaV100, get_architecture
from repro.arch.occupancy import OccupancyCalculator, OccupancyResult
from repro.cubin.binary import Cubin
from repro.sampling.gpu import GpuSimulationResult, GpuSimulator
from repro.sampling.memory import MEMORY_MODELS, check_memory_model
from repro.sampling.sample import KernelProfile, LaunchConfig, LaunchStatistics
from repro.sampling.simulator import DEFAULT_MAX_CYCLES, SimulationResult
from repro.sampling.trace import generate_warp_trace
from repro.sampling.vector import VectorSMSimulator
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import ProgramStructure, build_program_structure

#: The two simulation scopes: one representative wave on one SM with
#: ``wave_cycles * waves`` extrapolation, or the full grid across every SM.
SIMULATION_SCOPES = ("single_wave", "whole_gpu")


def check_simulation_scope(scope: str) -> str:
    """``scope`` if valid, else a uniform ``ValueError``."""
    if scope not in SIMULATION_SCOPES:
        raise ValueError(
            f"unknown simulation scope {scope!r}; expected one of {SIMULATION_SCOPES}"
        )
    return scope


def representative_blocks(grid_blocks: int, blocks_per_sm: int) -> List[int]:
    """Distinct grid block ids spread across the grid for one simulated SM.

    The resident-block count is clamped to the grid: a launch whose per-SM
    residency exceeds its grid must not duplicate block ids (duplicated ids
    would simulate more resident blocks than the grid has).
    """
    count = max(1, min(blocks_per_sm, grid_blocks))
    return [(i * grid_blocks) // count for i in range(count)]


@dataclass
class ProfiledKernel:
    """Everything GPA's dynamic analyzer needs about one kernel launch."""

    kernel: str
    profile: KernelProfile
    structure: ProgramStructure
    cubin: Cubin
    config: LaunchConfig
    workload: WorkloadSpec
    occupancy: OccupancyResult
    #: Raw simulator output (:class:`~repro.sampling.simulator
    #: .SimulationResult` for the single-wave scope, :class:`~repro.sampling
    #: .gpu.GpuSimulationResult` for the whole-GPU scope); ``None`` when the
    #: profile was replayed from the pipeline's on-disk cache instead of
    #: being simulated.
    simulation: Optional[Union[SimulationResult, GpuSimulationResult]] = None

    @property
    def kernel_cycles(self) -> float:
        """Estimated kernel duration in cycles."""
        return self.profile.statistics.kernel_cycles


class Profiler:
    """Runs kernel launches on the simulator and produces profiles."""

    def __init__(
        self,
        architecture: Optional[GpuArchitecture] = None,
        sample_period: int = 32,
        keep_samples: bool = False,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        simulation_scope: str = "single_wave",
        memory_model: str = "flat",
    ):
        self.architecture = architecture or VoltaV100
        self.sample_period = sample_period
        self.keep_samples = keep_samples
        self.max_cycles = max_cycles
        self.simulation_scope = check_simulation_scope(simulation_scope)
        self.memory_model = check_memory_model(memory_model)

    # ------------------------------------------------------------------
    def profile(
        self,
        cubin: Cubin,
        kernel_name: str,
        config: LaunchConfig,
        workload: Optional[WorkloadSpec] = None,
    ) -> ProfiledKernel:
        """Profile one kernel launch."""
        workload = workload or WorkloadSpec()
        architecture = self._architecture_for(cubin)
        structure = build_program_structure(cubin)
        kernel_function = cubin.function(kernel_name)
        if not kernel_function.is_kernel:
            raise ValueError(f"{kernel_name!r} is a device function, not a kernel")

        occupancy = self.occupancy_for(cubin, kernel_name, config, architecture)

        warps_per_block = math.ceil(config.threads_per_block / architecture.warp_size)
        total_grid_warps = config.grid_blocks * warps_per_block

        def trace_for_warp(global_warp_id: int):
            return generate_warp_trace(
                structure,
                kernel_name,
                workload,
                architecture,
                warp_id=global_warp_id,
                num_warps=total_grid_warps,
            )

        if self.simulation_scope == "whole_gpu":
            simulation = GpuSimulator(
                architecture,
                sample_period=self.sample_period,
                keep_samples=self.keep_samples,
                max_cycles=self.max_cycles,
                memory_model=self.memory_model,
            ).simulate(
                kernel_name,
                trace_for_warp,
                grid_blocks=config.grid_blocks,
                warps_per_block=warps_per_block,
                blocks_per_sm=occupancy.blocks_per_sm_limit,
            )
            wave_cycles = simulation.wave_cycles
            # Measured whole-kernel duration, not an extrapolation.
            kernel_cycles: float = simulation.kernel_cycles
        else:
            # Pick representative blocks spread across the grid so that
            # per-warp workload variation (imbalance) is visible to the one
            # simulated SM.
            traces = []
            block_of_warp = []
            blocks = representative_blocks(config.grid_blocks, occupancy.blocks_per_sm)
            for local_block, grid_block in enumerate(blocks):
                for warp_in_block in range(warps_per_block):
                    traces.append(
                        trace_for_warp(grid_block * warps_per_block + warp_in_block)
                    )
                    block_of_warp.append(local_block)

            simulator = VectorSMSimulator(
                architecture,
                sample_period=self.sample_period,
                keep_samples=self.keep_samples,
                max_cycles=self.max_cycles,
                memory_model=self.memory_model,
            )
            simulation = simulator.simulate(kernel_name, traces, block_of_warp)
            wave_cycles = simulation.wave_cycles
            kernel_cycles = simulation.wave_cycles * max(1.0, occupancy.waves)

        statistics = LaunchStatistics(
            kernel=kernel_name,
            config=config,
            registers_per_thread=kernel_function.registers_per_thread,
            blocks_per_sm=occupancy.blocks_per_sm,
            warps_per_sm=occupancy.warps_per_sm,
            warps_per_scheduler=occupancy.warps_per_scheduler,
            occupancy=occupancy.occupancy,
            occupancy_limiter=occupancy.limiter,
            waves=occupancy.waves,
            wave_cycles=wave_cycles,
            kernel_cycles=kernel_cycles,
            sample_period=self.sample_period,
            simulation_scope=self.simulation_scope,
            memory_model=self.memory_model,
            memory=simulation.memory,
        )

        # Record in (function, offset) order — the canonical order of the
        # JSON serialization — so a profile replayed from the pipeline cache
        # iterates identically to a freshly simulated one (downstream
        # tie-breaks depend on dict insertion order).
        profile = KernelProfile(kernel=kernel_name, statistics=statistics)
        keys = sorted(set(simulation.stall_counts) | set(simulation.issue_counts))
        for function, offset in keys:
            for reason, count in simulation.stall_counts.get((function, offset), {}).items():
                profile.record_stall(function, offset, reason, count)
            issued = simulation.issue_counts.get((function, offset), 0)
            if issued:
                profile.record_issue(function, offset, issued)

        return ProfiledKernel(
            kernel=kernel_name,
            profile=profile,
            structure=structure,
            cubin=cubin,
            config=config,
            workload=workload,
            occupancy=occupancy,
            simulation=simulation,
        )

    # ------------------------------------------------------------------
    def occupancy_for(
        self,
        cubin: Cubin,
        kernel_name: str,
        config: LaunchConfig,
        architecture: Optional[GpuArchitecture] = None,
    ) -> OccupancyResult:
        """Occupancy of one launch (static, no simulation involved)."""
        architecture = architecture or self._architecture_for(cubin)
        kernel_function = cubin.function(kernel_name)
        shared_memory = max(config.shared_memory_bytes, kernel_function.shared_memory_bytes)
        return OccupancyCalculator(architecture).calculate(
            grid_blocks=config.grid_blocks,
            threads_per_block=config.threads_per_block,
            registers_per_thread=kernel_function.registers_per_thread,
            shared_memory_per_block=shared_memory,
        )

    # ------------------------------------------------------------------
    def _architecture_for(self, cubin: Cubin) -> GpuArchitecture:
        """Pick the architecture model matching the binary's arch flag."""
        if cubin.arch_flag == self.architecture.arch_flag:
            return self.architecture
        try:
            return get_architecture(cubin.arch_flag)
        except KeyError:
            return self.architecture

    # ------------------------------------------------------------------
    # Offline dump / load (the paper's profiler writes profiles to disk and
    # the advisor analyzes them later).
    # ------------------------------------------------------------------
    @staticmethod
    def dump(profiled: ProfiledKernel, directory: Union[str, Path]) -> Path:
        """Write the profile and the binary next to each other for offline use."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        profile_path = directory / f"{profiled.kernel}.profile.json"
        # Module names may carry path separators (e.g. "rodinia/hotspot").
        cubin_path = directory / f"{profiled.cubin.module_name}.json"
        cubin_path.parent.mkdir(parents=True, exist_ok=True)
        profile_path.write_text(profiled.profile.to_json(indent=2))
        cubin_path.write_text(profiled.cubin.to_json(indent=2))
        return profile_path

    @staticmethod
    def load_profile(path: Union[str, Path]) -> KernelProfile:
        """Load a profile dumped by :meth:`dump`."""
        return KernelProfile.from_json(Path(path).read_text())
