"""PC sampling substrate (CUPTI + V100 hardware substitute).

The paper collects PC samples with CUPTI on a Volta V100: every sampling
period each SM records, for one of its four warp schedulers (round-robin), an
*active* sample if the scheduler issued an instruction that cycle or a
*latency* sample otherwise, plus the sampled warp's program counter and stall
reason (Figure 1).  GPA consumes only this sample stream and the kernel
launch statistics.

Because the reproduction has no GPU, this package provides a warp-scheduler
level execution simulator that produces the same interface:

* :mod:`repro.sampling.stall_reasons` — the CUPTI-style stall reason set;
* :mod:`repro.sampling.sample` — samples, per-instruction aggregates,
  kernel profiles and launch statistics;
* :mod:`repro.sampling.workload` — workload specifications (loop trip
  counts, branch behaviour, memory coalescing, call targets) that drive
  dynamic traces without needing a functional value interpreter;
* :mod:`repro.sampling.trace` — per-warp dynamic instruction traces walked
  out of the control flow graph, emitted as the packed records the SM
  simulator steps on;
* :mod:`repro.sampling.memory` — the per-SM memory-hierarchy model
  (warp-access coalescing into 32-byte sectors, L1/L2 caches, MSHR-limited
  misses, bandwidth-limited DRAM) behind ``memory_model="hierarchy"``;
* :mod:`repro.sampling.vector` — the SM simulator every profiling path
  runs (scoreboards, barrier wait masks, block-wide synchronization, memory
  throttling, instruction fetch pressure, loose round-robin scheduling,
  observation-neutral PC sampling), stepped over the traces' records;
  ``docs/SIMULATOR.md`` states its semantics and the record layout;
* :mod:`repro.sampling.gpu` — the whole-GPU engine that dispatches the full
  grid across every SM in waves and merges the per-SM results;
* :mod:`repro.sampling.profiler` — the profiler facade that runs kernel
  launches (under either simulation scope) and dumps profiles for offline
  analysis.
"""

from repro.sampling.stall_reasons import StallReason
from repro.sampling.sample import (
    InstructionSamples,
    KernelProfile,
    LaunchConfig,
    LaunchStatistics,
    PCSample,
)
from repro.sampling.workload import WorkloadSpec
from repro.sampling.memory import (
    MEMORY_MODELS,
    MemoryHierarchy,
    MemoryStatistics,
    SectorCache,
)
from repro.sampling.trace import generate_warp_trace
from repro.sampling.vector import SimulationResult
from repro.sampling.gpu import GpuSimulationResult, GpuSimulator, WaveStatistics
from repro.sampling.profiler import (
    SIMULATION_SCOPES,
    ProfiledKernel,
    Profiler,
    representative_blocks,
)

__all__ = [
    "GpuSimulationResult",
    "GpuSimulator",
    "InstructionSamples",
    "MEMORY_MODELS",
    "MemoryHierarchy",
    "MemoryStatistics",
    "SectorCache",
    "KernelProfile",
    "LaunchConfig",
    "LaunchStatistics",
    "PCSample",
    "ProfiledKernel",
    "Profiler",
    "SIMULATION_SCOPES",
    "SimulationResult",
    "StallReason",
    "WaveStatistics",
    "WorkloadSpec",
    "generate_warp_trace",
    "representative_blocks",
]
