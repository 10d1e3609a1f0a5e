"""The profiling stage of the advising pipeline.

Advising is two stages — *profile* (simulate a kernel launch and collect PC
samples) and *analyze* (blame, match optimizers, estimate, rank).  The
analysis stage is :class:`~repro.advisor.dynamic_analyzer.DynamicAnalyzer`
itself; this module holds the profiling one:

* :class:`ProfileStage` turns a :class:`ProfileRequest` (binary, kernel,
  launch config, workload) into a
  :class:`~repro.sampling.profiler.ProfiledKernel`, consulting an optional
  :class:`~repro.pipeline.cache.ProfileCache` first — a hit rebuilds the
  program structure from the binary and recomputes occupancy (both cheap
  and deterministic) without invoking the simulator at all.

The stage carries no per-run state, so one instance can serve a whole sweep.
Offline analysis of dumped profiles skips it: a ``profile``-source
:class:`~repro.api.request.AdvisingRequest` or
:meth:`AdvisingSession.analyze <repro.api.session.AdvisingSession.analyze>`
goes straight to the analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.arch.machine import GpuArchitecture, get_architecture
from repro.cubin.binary import Cubin
from repro.pipeline.cache import ProfileCache, coerce_cache, profile_cache_key
from repro.sampling.profiler import ProfiledKernel, Profiler
from repro.sampling.sample import KernelProfile, LaunchConfig
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import build_program_structure


@dataclass(frozen=True)
class ProfileRequest:
    """Typed input of :class:`ProfileStage`: one kernel launch to profile."""

    cubin: Cubin
    kernel: str
    config: LaunchConfig
    workload: Optional[WorkloadSpec] = None


def retarget(cubin: Cubin, arch_flag: str) -> Cubin:
    """``cubin`` re-labelled for ``arch_flag`` ("recompile" for another GPU).

    The simulator picks its machine model from the binary's architecture
    flag, so sweeping the same synthetic kernels on a different registered
    architecture is just a flag rewrite (functions are shared, not copied).
    The copy is memoized per flag in the source binary's instance
    ``__dict__``, so every request for one (binary, flag) shares one copy
    and its memos (structure, cache token).  Raises
    :class:`~repro.arch.machine.ArchitectureError` for unknown flags.
    """
    if cubin.arch_flag == arch_flag:
        return cubin
    copies = cubin.__dict__.setdefault("_retargeted", {})
    copy = copies.get(arch_flag)
    if copy is None:
        get_architecture(arch_flag)
        copy = copies.setdefault(arch_flag, replace(cubin, arch_flag=arch_flag))
    return copy


class ProfileStage:
    """The profiling stage: simulate a launch, or replay it from the cache."""

    name = "profile"

    def __init__(
        self,
        architecture: Optional[GpuArchitecture] = None,
        sample_period: int = 32,
        cache: Union[None, str, ProfileCache] = None,
        profiler: Optional[Profiler] = None,
        simulation_scope: str = "single_wave",
        memory_model: str = "flat",
    ):
        self.profiler = profiler or Profiler(
            architecture, sample_period=sample_period,
            simulation_scope=simulation_scope, memory_model=memory_model,
        )
        self.cache = coerce_cache(cache)

    @property
    def architecture(self) -> GpuArchitecture:
        return self.profiler.architecture

    @property
    def sample_period(self) -> int:
        return self.profiler.sample_period

    @property
    def simulation_scope(self) -> str:
        return self.profiler.simulation_scope

    @property
    def memory_model(self) -> str:
        return self.profiler.memory_model

    # ------------------------------------------------------------------
    def cache_key(self, request: ProfileRequest) -> str:
        """The cache key this stage uses for ``request``."""
        return profile_cache_key(
            request.cubin,
            request.kernel,
            request.config,
            request.workload or WorkloadSpec(),
            self.profiler._architecture_for(request.cubin),
            self.profiler.sample_period,
            max_cycles=self.profiler.max_cycles,
            simulation_scope=self.profiler.simulation_scope,
            memory_model=self.profiler.memory_model,
        )

    def run(self, request: ProfileRequest) -> ProfiledKernel:
        """Profile the requested launch, consulting the cache first.

        A profiler configured with ``keep_samples=True`` wants the raw
        per-cycle samples, which only the simulator produces — replays carry
        ``simulation=None`` — so such a stage never reads the cache (it still
        writes, since the aggregated profile is identical either way).
        """
        key = None
        store = False
        if self.cache is not None:
            key = self.cache_key(request)
            if self.profiler.keep_samples:
                # Still simulate every time, but don't rewrite an identical
                # entry on every run of a sample-keeping sweep.
                store = key not in self.cache
            else:
                cached = self.cache.get(key)
                if cached is not None:
                    return self._replay(request, cached)
                store = True

        profiled = self.profiler.profile(
            request.cubin, request.kernel, request.config, request.workload
        )
        if store:
            self.cache.put(key, profiled.profile)
        return profiled

    def _replay(self, request: ProfileRequest, profile: KernelProfile) -> ProfiledKernel:
        """Rebuild a :class:`ProfiledKernel` around a cached profile.

        Structure recovery and the occupancy calculation are deterministic
        static analyses; only the simulation itself is skipped (and its raw
        :class:`~repro.sampling.vector.SimulationResult` is absent).
        """
        workload = request.workload or WorkloadSpec()
        structure = build_program_structure(request.cubin)
        occupancy = self.profiler.occupancy_for(request.cubin, request.kernel, request.config)
        return ProfiledKernel(
            kernel=request.kernel,
            profile=profile,
            structure=structure,
            cubin=request.cubin,
            config=request.config,
            workload=workload,
            occupancy=occupancy,
            simulation=None,
        )

