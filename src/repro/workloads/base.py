"""Workload plumbing: kernel setups and benchmark cases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cubin.binary import Cubin
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec


@dataclass(frozen=True)
class KernelSetup:
    """Everything needed to profile one kernel launch.

    Frozen, like everything it holds (binary, launch configuration and
    workload spec), so one setup can serve any number of runs.
    """

    cubin: Cubin
    kernel: str
    config: LaunchConfig
    workload: WorkloadSpec

    def describe(self) -> str:
        return (
            f"{self.kernel}<<<{self.config.grid_blocks}, "
            f"{self.config.threads_per_block}>>> ({self.cubin.module_name})"
        )


#: A builder producing a fresh :class:`KernelSetup` on every call, such as a
#: workload module's ``baseline()``.  A :class:`BenchmarkCase` calls each of
#: its two builders once.
SetupBuilder = Callable[[], KernelSetup]


@dataclass
class BenchmarkCase:
    """One row of Table 3: a kernel, an optimization, and the paper's numbers.

    :meth:`build_baseline` and :meth:`build_optimized` build their setup on
    the first call and return that same frozen setup on every later call, so
    a registry case's binary is built once per process.  The memo lives in
    the instance ``__dict__``, not in a field, so a
    :func:`dataclasses.replace` clone starts without one.
    """

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
    #: Paper-reported numbers, printed next to the reproduction's by
    #: ``python -m repro.evaluation.table3`` (see docs/EVALUATION.md).
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
        return self._setup("_baseline_setup", self.baseline)

    def build_optimized(self) -> KernelSetup:
        return self._setup("_optimized_setup", self.optimized)

    def _setup(self, memo: str, builder: SetupBuilder) -> KernelSetup:
        setup = self.__dict__.get(memo)
        if setup is None:
            # No lock: two racing first calls both build, and setdefault
            # keeps one of the two equal setups for both.
            setup = self.__dict__.setdefault(memo, builder())
        return setup
