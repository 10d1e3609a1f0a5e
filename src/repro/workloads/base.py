"""Workload plumbing: kernel setups and benchmark cases."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.cubin.binary import Cubin
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec


@dataclass
class KernelSetup:
    """Everything needed to profile one kernel launch."""

    cubin: Cubin
    kernel: str
    config: LaunchConfig
    workload: WorkloadSpec

    def describe(self) -> str:
        return (
            f"{self.kernel}<<<{self.config.grid_blocks}, "
            f"{self.config.threads_per_block}>>> ({self.cubin.module_name})"
        )


#: A builder producing a fresh :class:`KernelSetup` on every call (setups are
#: mutable through their workload specs, so sharing instances across runs is
#: avoided).
SetupBuilder = Callable[[], KernelSetup]


@dataclass
class BenchmarkCase:
    """One row of Table 3: a kernel, an optimization, and the paper's numbers."""

    #: Benchmark name as in Table 3, e.g. ``"rodinia/hotspot"``.
    name: str
    #: Kernel symbol, e.g. ``"calculate_temp"``.
    kernel: str
    #: The optimization the paper applied, e.g. ``"Strength Reduction"``.
    optimization: str
    #: The GPA optimizer expected to recommend it (its ``Optimizer.name``).
    optimizer_name: str
    #: Builders for the baseline and hand-optimized variants.
    baseline: SetupBuilder
    optimized: SetupBuilder
    #: Paper-reported numbers (for EXPERIMENTS.md comparisons only).
    paper_original_time: str = ""
    paper_achieved_speedup: float = 1.0
    paper_estimated_speedup: float = 1.0
    #: Whether the case belongs to the Rodinia suite (Figure 7 population).
    is_rodinia: bool = True

    @property
    def case_id(self) -> str:
        """A unique identifier (benchmark + optimization)."""
        slug = self.optimization.lower().replace(" ", "_")
        return f"{self.name}:{slug}"

    def build_baseline(self) -> KernelSetup:
        return self.baseline()

    def build_optimized(self) -> KernelSetup:
        return self.optimized()
