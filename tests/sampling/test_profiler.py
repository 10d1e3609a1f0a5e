"""Tests for the profiler facade and the profile data model."""

import dataclasses
import math

import pytest

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.arch.machine import VoltaV100
from repro.sampling.gpu import GpuSimulationResult
from repro.sampling.profiler import Profiler, representative_blocks
from repro.sampling.sample import KernelProfile, LaunchConfig
from repro.sampling.stall_reasons import StallReason
from repro.sampling.workload import WorkloadSpec
from repro.workloads.registry import case_names

#: A small Volta keeps whole-GPU profiles cheap: 4 SMs, and few enough warp
#: slots that modest grids still need several dispatch waves.
TinyVolta = dataclasses.replace(VoltaV100, num_sms=4, max_blocks_per_sm=2,
                                max_warps_per_sm=16)


class TestLaunchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LaunchConfig(0, 32)
        with pytest.raises(ValueError):
            LaunchConfig(1, 0)

    def test_with_helpers(self):
        config = LaunchConfig(16, 256)
        assert config.with_blocks(32).grid_blocks == 32
        assert config.with_threads(512).threads_per_block == 512
        assert config.total_threads == 16 * 256


class TestProfiler:
    def test_profile_contains_launch_statistics(self, toy_profiled, toy_config):
        stats = toy_profiled.profile.statistics
        assert stats.kernel == "toy_kernel"
        assert stats.config == toy_config
        assert stats.warps_per_sm > 0
        assert stats.wave_cycles > 0
        assert stats.kernel_cycles >= stats.wave_cycles

    def test_profile_totals_consistent(self, toy_profiled):
        profile = toy_profiled.profile
        assert profile.total_samples == profile.active_samples + profile.latency_samples
        assert 0.0 <= profile.stall_ratio <= 1.0
        assert profile.stall_ratio + profile.active_ratio == pytest.approx(1.0)

    def test_stalls_by_reason_includes_memory_dependency(self, toy_profiled):
        reasons = toy_profiled.profile.stalls_by_reason()
        assert reasons.get(StallReason.MEMORY_DEPENDENCY, 0) > 0

    def test_issue_samples_at_known_instruction(self, toy_profiled):
        profile = toy_profiled.profile
        assert any(entry.issue_samples > 0 for entry in profile.instructions.values())

    def test_unknown_kernel_rejected(self, toy_cubin):
        profiler = Profiler(VoltaV100, sample_period=8)
        with pytest.raises(KeyError):
            profiler.profile(toy_cubin, "missing_kernel", LaunchConfig(1, 32))

    def test_profile_json_roundtrip(self, toy_profiled):
        profile = toy_profiled.profile
        restored = KernelProfile.from_json(profile.to_json())
        assert restored.total_samples == profile.total_samples
        assert restored.stalls_by_reason() == profile.stalls_by_reason()
        assert restored.statistics.wave_cycles == profile.statistics.wave_cycles
        key = next(iter(profile.instructions))
        assert restored.instructions[key].issue_samples == profile.instructions[key].issue_samples

    def test_dump_and_load(self, toy_profiled, tmp_path):
        path = Profiler.dump(toy_profiled, tmp_path)
        assert path.exists()
        restored = Profiler.load_profile(path)
        assert restored.kernel == "toy_kernel"
        assert restored.total_samples == toy_profiled.profile.total_samples

    def test_grid_limited_launch_uses_fewer_blocks_on_sm(self, toy_cubin, toy_workload):
        profiler = Profiler(VoltaV100, sample_period=8)
        result = profiler.profile(toy_cubin, "toy_kernel", LaunchConfig(16, 128), toy_workload)
        assert result.occupancy.blocks_per_sm == 1
        assert result.profile.statistics.occupancy_limiter == "grid"

    def test_representative_blocks_are_distinct_and_clamped(self):
        # blocks_per_sm > grid_blocks must not duplicate block ids (that
        # would simulate more resident blocks than the grid has).
        assert representative_blocks(3, 8) == [0, 1, 2]
        assert representative_blocks(1, 5) == [0]
        # Normal spreads stay distinct and cover the grid's span.
        spread = representative_blocks(100, 4)
        assert len(set(spread)) == 4
        assert spread[0] == 0 and spread[-1] == 75
        assert representative_blocks(7, 7) == list(range(7))

    def test_grid_position_dependent_workloads_profile_cleanly(self, toy_cubin):
        # Per-warp trip counts that depend on the grid position exercise the
        # representative-block selection of the profiler: the first half of
        # the 1280 warps runs long, the second half short.
        workload = WorkloadSpec(loop_trip_counts={12: (24,) * 640 + (2,) * 640})
        profiler = Profiler(VoltaV100, sample_period=8)
        result = profiler.profile(toy_cubin, "toy_kernel", LaunchConfig(320, 128), workload)
        assert result.profile.total_samples > 0
        assert result.simulation.issued_instructions > 0


class TestSimulationScopes:
    """The whole-GPU scope and the launch shapes both scopes must handle."""

    def _profile(self, cubin, workload, config, scope, architecture=TinyVolta):
        profiler = Profiler(architecture, sample_period=8, simulation_scope=scope)
        return profiler.profile(cubin, "toy_kernel", config, workload)

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            Profiler(VoltaV100, simulation_scope="per_warp")

    def test_whole_gpu_measures_instead_of_extrapolating(self, toy_cubin, toy_workload):
        config = LaunchConfig(grid_blocks=19, threads_per_block=128)
        profiled = self._profile(toy_cubin, toy_workload, config, "whole_gpu")
        statistics = profiled.profile.statistics
        simulation = profiled.simulation
        assert isinstance(simulation, GpuSimulationResult)
        assert statistics.simulation_scope == "whole_gpu"
        assert statistics.kernel_cycles == simulation.kernel_cycles
        assert statistics.wave_cycles == simulation.waves[0].cycles
        assert simulation.num_waves == math.ceil(
            19 / (TinyVolta.num_sms * profiled.occupancy.blocks_per_sm_limit)
        )

    def test_single_wave_still_extrapolates(self, toy_cubin, toy_workload):
        config = LaunchConfig(grid_blocks=19, threads_per_block=128)
        profiled = self._profile(toy_cubin, toy_workload, config, "single_wave")
        statistics = profiled.profile.statistics
        assert statistics.simulation_scope == "single_wave"
        assert statistics.kernel_cycles == pytest.approx(
            statistics.wave_cycles * max(1.0, profiled.occupancy.waves)
        )

    def test_scope_survives_profile_serialization(self, toy_cubin, toy_workload):
        config = LaunchConfig(grid_blocks=9, threads_per_block=64)
        profiled = self._profile(toy_cubin, toy_workload, config, "whole_gpu")
        restored = KernelProfile.from_json(profiled.profile.to_json())
        assert restored.statistics.simulation_scope == "whole_gpu"
        assert restored.statistics.kernel_cycles == profiled.profile.statistics.kernel_cycles
        assert restored.to_dict() == profiled.profile.to_dict()

    @pytest.mark.parametrize("scope", ["single_wave", "whole_gpu"])
    def test_grid_limited_launch(self, toy_cubin, toy_workload, scope):
        # Fewer blocks than SMs: limiter == "grid", waves < 1.
        config = LaunchConfig(grid_blocks=2, threads_per_block=128)
        profiled = self._profile(toy_cubin, toy_workload, config, scope)
        assert profiled.occupancy.limiter == "grid"
        assert profiled.occupancy.waves < 1.0
        assert profiled.profile.total_samples > 0
        statistics = profiled.profile.statistics
        if scope == "whole_gpu":
            # One under-full wave: measured == that wave, no rounding up.
            assert statistics.kernel_cycles == statistics.wave_cycles
            assert profiled.simulation.num_waves == 1
            assert profiled.simulation.waves[0].occupied_sms == 2
        else:
            # The single-wave estimate never extrapolates below one wave.
            assert statistics.kernel_cycles == statistics.wave_cycles

    @pytest.mark.parametrize("scope", ["single_wave", "whole_gpu"])
    def test_fractional_waves_launch(self, toy_cubin, toy_workload, scope):
        # capacity = 4 SMs x 2 blocks = 8 blocks/wave -> 20 blocks = 2.5 waves.
        config = LaunchConfig(grid_blocks=20, threads_per_block=128)
        profiled = self._profile(toy_cubin, toy_workload, config, scope)
        assert profiled.occupancy.waves == pytest.approx(2.5)
        assert profiled.profile.total_samples > 0
        if scope == "whole_gpu":
            simulation = profiled.simulation
            assert simulation.num_waves == 3
            assert simulation.waves[-1].blocks == 4
            assert simulation.waves[-1].occupied_sms == 4
            assert profiled.profile.statistics.kernel_cycles == sum(
                wave.cycles for wave in simulation.waves
            )

    @pytest.mark.parametrize("scope", ["single_wave", "whole_gpu"])
    def test_partial_last_warp_launch(self, toy_cubin, toy_workload, scope):
        # threads_per_block not a multiple of warp_size: ceil() adds a
        # partial warp to every block; both engines must stay consistent.
        config = LaunchConfig(grid_blocks=10, threads_per_block=100)
        profiled = self._profile(toy_cubin, toy_workload, config, scope)
        warps_per_block = math.ceil(100 / TinyVolta.warp_size)
        assert warps_per_block == 4
        assert profiled.profile.total_samples > 0
        if scope == "whole_gpu":
            total_warps = 10 * warps_per_block
            # All grid warps executed: issue totals count every warp's ops.
            assert profiled.simulation.issued_instructions > 0
            assert sum(w.blocks for w in profiled.simulation.waves) == 10
            assert total_warps == 40

    def test_whole_gpu_deterministic_across_runs(self, toy_cubin, toy_workload):
        config = LaunchConfig(grid_blocks=12, threads_per_block=128)
        first = self._profile(toy_cubin, toy_workload, config, "whole_gpu")
        second = self._profile(toy_cubin, toy_workload, config, "whole_gpu")
        assert first.profile.to_dict() == second.profile.to_dict()


class TestObservationNeutrality:
    """Sampling observes and never perturbs: every registry baseline runs
    the same simulated timing and memory traffic whether a sample is taken
    every cycle or once in 2**20 cycles."""

    @pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
    @pytest.mark.parametrize("case_id", case_names())
    def test_timing_invariant_across_sample_periods(self, case_id, memory_model):
        facts = []
        for period in (1, 1 << 20):
            session = AdvisingSession(sample_period=period, memory_model=memory_model)
            statistics = session.profile(request_for_case(case_id)).profile.statistics
            assert (statistics.memory is None) == (memory_model == "flat")
            memory = statistics.memory.to_dict() if statistics.memory is not None else None
            facts.append((statistics.kernel_cycles, statistics.wave_cycles, memory))
        assert facts[0] == facts[1]
