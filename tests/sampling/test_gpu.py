"""Tests for the whole-GPU multi-wave simulation engine."""

import dataclasses
import math

import pytest

from repro.arch.machine import VoltaV100
from repro.sampling.gpu import GpuSimulator
from repro.sampling.trace import generate_warp_trace
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import build_program_structure

#: A four-SM Volta so whole-GPU runs stay cheap while still exercising
#: multi-SM dispatch, waves and partial tails.
TinyVolta = dataclasses.replace(VoltaV100, num_sms=4)

WARPS_PER_BLOCK = 4
BLOCKS_PER_SM = 2
#: Wave capacity of the tiny GPU: 4 SMs x 2 blocks.
CAPACITY = TinyVolta.num_sms * BLOCKS_PER_SM


@pytest.fixture(scope="module")
def toy_structure(toy_cubin):
    return build_program_structure(toy_cubin)


def run_whole_gpu(structure, workload, grid_blocks, sample_period=8, **simulator_kwargs):
    total_warps = grid_blocks * WARPS_PER_BLOCK

    def trace_for_warp(global_warp_id):
        return generate_warp_trace(
            structure, "toy_kernel", workload, TinyVolta, global_warp_id, total_warps
        )

    simulator = GpuSimulator(TinyVolta, sample_period=sample_period, **simulator_kwargs)
    return simulator.simulate(
        "toy_kernel",
        trace_for_warp,
        grid_blocks=grid_blocks,
        warps_per_block=WARPS_PER_BLOCK,
        blocks_per_sm=BLOCKS_PER_SM,
    )


class TestDispatch:
    def test_full_grid_issues_every_warp(self, toy_structure, toy_workload):
        grid = 2 * CAPACITY + 3  # two full waves plus a partial tail
        result = run_whole_gpu(toy_structure, toy_workload, grid)
        total_warps = grid * WARPS_PER_BLOCK
        expected = sum(
            len(generate_warp_trace(toy_structure, "toy_kernel", toy_workload,
                                    TinyVolta, warp, total_warps))
            for warp in range(total_warps)
        )
        assert result.issued_instructions == expected

    def test_wave_count_covers_the_grid(self, toy_structure, toy_workload):
        for grid in (1, CAPACITY - 1, CAPACITY, CAPACITY + 1, 3 * CAPACITY):
            result = run_whole_gpu(toy_structure, toy_workload, grid)
            assert result.num_waves == math.ceil(grid / CAPACITY)
            assert sum(wave.blocks for wave in result.waves) == grid

    def test_partial_tail_wave_leaves_sms_idle(self, toy_structure, toy_workload):
        grid = CAPACITY + 3  # tail wave of 3 blocks on a 4-SM GPU
        result = run_whole_gpu(toy_structure, toy_workload, grid)
        assert result.num_waves == 2
        full, tail = result.waves
        assert full.occupied_sms == TinyVolta.num_sms
        assert tail.blocks == 3
        assert tail.occupied_sms == 3

    def test_kernel_cycles_is_the_sum_of_wave_maxima(self, toy_structure, toy_workload):
        result = run_whole_gpu(toy_structure, toy_workload, 2 * CAPACITY + 3)
        assert result.kernel_cycles == sum(wave.cycles for wave in result.waves)
        assert result.wave_cycles == result.waves[0].cycles
        for wave in result.waves:
            assert 0 < wave.fastest_sm_cycles <= wave.cycles
        # The throughput denominator counts every SM of every wave, bounded
        # by the per-wave extremes.
        assert result.simulated_sm_cycles >= sum(
            wave.fastest_sm_cycles * wave.occupied_sms for wave in result.waves
        )
        assert result.simulated_sm_cycles <= sum(
            wave.cycles * wave.occupied_sms for wave in result.waves
        )

    def test_grid_limited_launch_is_one_underfull_wave(self, toy_structure, toy_workload):
        result = run_whole_gpu(toy_structure, toy_workload, 2)
        assert result.num_waves == 1
        assert result.waves[0].occupied_sms == 2
        assert result.kernel_cycles == result.wave_cycles

    def test_input_validation(self, toy_structure, toy_workload):
        simulator = GpuSimulator(TinyVolta)
        with pytest.raises(ValueError):
            simulator.simulate("k", lambda w: [], grid_blocks=0,
                               warps_per_block=1, blocks_per_sm=1)
        with pytest.raises(ValueError):
            simulator.simulate("k", lambda w: [], grid_blocks=1,
                               warps_per_block=0, blocks_per_sm=1)


class TestMergedAggregates:
    def test_sample_totals_are_consistent(self, toy_structure, toy_workload):
        result = run_whole_gpu(toy_structure, toy_workload, CAPACITY + 3)
        assert result.total_samples == result.active_samples + result.latency_samples
        per_instruction = sum(
            sum(reasons.values()) for reasons in result.stall_counts.values()
        )
        assert per_instruction == result.latency_samples
        assert sum(result.issue_counts.values()) == result.active_samples

    def test_deterministic_across_runs(self, toy_structure):
        workload = WorkloadSpec(
            loop_trip_counts={12: (20, 4, 4)}
        )
        first = run_whole_gpu(toy_structure, workload, CAPACITY + 5)
        second = run_whole_gpu(toy_structure, workload, CAPACITY + 5)
        assert first.kernel_cycles == second.kernel_cycles
        assert first.stall_counts == second.stall_counts
        assert first.issue_counts == second.issue_counts
        assert first.issued_instructions == second.issued_instructions
        assert [dataclasses.asdict(w) for w in first.waves] == [
            dataclasses.asdict(w) for w in second.waves
        ]

    def test_keep_samples_rebases_cycles_onto_the_kernel_timeline(
        self, toy_structure, toy_workload
    ):
        result = run_whole_gpu(
            toy_structure, toy_workload, 2 * CAPACITY, keep_samples=True
        )
        assert len(result.samples) == result.total_samples
        assert {sample.sm_id for sample in result.samples} == set(
            range(TinyVolta.num_sms)
        )
        # Samples from the second wave must sit past the first wave's end.
        first_wave_end = result.waves[0].cycles
        assert any(sample.cycle >= first_wave_end for sample in result.samples)
        assert all(sample.cycle <= result.kernel_cycles for sample in result.samples)

    def test_imbalanced_grid_shows_cross_sm_variation(self, toy_structure):
        # The first half of the grid runs 10x longer than the second half:
        # within a wave some SMs finish early, so the wave maximum exceeds
        # the fastest SM's cycles.
        half = CAPACITY * WARPS_PER_BLOCK
        workload = WorkloadSpec(loop_trip_counts={12: (30,) * half + (3,) * half})
        result = run_whole_gpu(toy_structure, workload, 2 * CAPACITY)
        spread = [wave.cycles - wave.fastest_sm_cycles for wave in result.waves]
        assert any(delta > 0 for delta in spread)

    def test_extrapolated_matches_single_wave_arithmetic(self, toy_structure, toy_workload):
        result = run_whole_gpu(toy_structure, toy_workload, 2 * CAPACITY)
        expected = result.wave_cycles * (2 * CAPACITY / CAPACITY)
        assert result.extrapolated_kernel_cycles == pytest.approx(expected)
