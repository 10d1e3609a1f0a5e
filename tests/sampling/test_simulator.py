"""Tests for the SM simulator and its PC sampling.

Every behaviour test runs on both cores (the ``core`` fixture): the
production :class:`~repro.sampling.vector.VectorSMSimulator` and the
reference :class:`~repro.sampling.simulator.SMSimulator`.
"""

import pytest

from repro.arch.machine import VoltaV100
from repro.cubin.builder import CubinBuilder, imm, p
from repro.sampling.stall_reasons import StallReason
from repro.sampling.trace import generate_warp_trace
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import build_program_structure


def build_traces(cubin, kernel, workload, num_warps, warps_per_block=4):
    structure = build_program_structure(cubin)
    traces, blocks = [], []
    for warp in range(num_warps):
        traces.append(generate_warp_trace(structure, kernel, workload, VoltaV100,
                                          warp, num_warps))
        blocks.append(warp // warps_per_block)
    return traces, blocks


@pytest.fixture(scope="module")
def toy_traces(toy_cubin, toy_workload):
    return build_traces(toy_cubin, "toy_kernel", toy_workload, num_warps=8)


class TestSimulation:
    def test_all_instructions_issue(self, core, toy_cubin, toy_traces):
        traces, blocks = toy_traces
        result = core(VoltaV100, sample_period=4).simulate("toy_kernel", traces, blocks)
        assert result.issued_instructions == sum(len(t) for t in traces)
        assert result.wave_cycles > 0

    def test_sample_totals_are_consistent(self, core, toy_traces):
        traces, blocks = toy_traces
        result = core(VoltaV100, sample_period=4).simulate("toy_kernel", traces, blocks)
        assert result.total_samples == result.active_samples + result.latency_samples
        per_instruction = sum(sum(v.values()) for v in result.stall_counts.values())
        assert per_instruction == result.latency_samples
        assert sum(result.issue_counts.values()) == result.active_samples

    def test_memory_dependency_stalls_at_consumer(self, core, toy_cubin, toy_traces):
        traces, blocks = toy_traces
        result = core(VoltaV100, sample_period=2).simulate("toy_kernel", traces, blocks)
        function = toy_cubin.function("toy_kernel")
        use_offsets = [i.offset for i in function.instructions
                       if i.opcode == "FFMA" and i.line == 14]
        memory_stalls = sum(
            result.stall_counts.get(("toy_kernel", offset), {}).get(
                StallReason.MEMORY_DEPENDENCY, 0)
            for offset in use_offsets
        )
        assert memory_stalls > 0

    def test_synchronization_stalls_with_imbalanced_warps(self, core, toy_cubin):
        workload = WorkloadSpec(
            loop_trip_counts={12: lambda warp, total: 20 if warp % 4 == 0 else 3}
        )
        traces, blocks = build_traces(toy_cubin, "toy_kernel", workload, num_warps=8)
        result = core(VoltaV100, sample_period=2).simulate("toy_kernel", traces, blocks)
        reasons = {}
        for counts in result.stall_counts.values():
            for reason, count in counts.items():
                reasons[reason] = reasons.get(reason, 0) + count
        assert reasons.get(StallReason.SYNCHRONIZATION, 0) > 0

    def test_barrier_mismatch_does_not_deadlock(self, core, toy_cubin):
        # Warps of the same block execute different numbers of barriers; the
        # simulator must still terminate (live-warp release rule).
        workload = WorkloadSpec(
            loop_trip_counts={12: lambda warp, total: 6 if warp % 2 == 0 else 2}
        )
        traces, blocks = build_traces(toy_cubin, "toy_kernel", workload, num_warps=4)
        result = core(VoltaV100, sample_period=4, max_cycles=200_000).simulate(
            "toy_kernel", traces, blocks)
        assert result.issued_instructions == sum(len(t) for t in traces)

    def test_sample_period_scales_sample_count(self, core, toy_traces):
        traces, blocks = toy_traces
        dense = core(VoltaV100, sample_period=2).simulate("toy_kernel", traces, blocks)
        sparse = core(VoltaV100, sample_period=16).simulate("toy_kernel", traces, blocks)
        assert dense.total_samples > sparse.total_samples

    def test_keep_samples_records_raw_stream(self, core, toy_traces):
        traces, blocks = toy_traces
        result = core(VoltaV100, sample_period=8, keep_samples=True).simulate(
            "toy_kernel", traces, blocks)
        assert len(result.samples) == result.total_samples
        schedulers = {sample.scheduler_id for sample in result.samples}
        assert schedulers <= set(range(VoltaV100.schedulers_per_sm))
        assert all(sample.cycle <= result.wave_cycles for sample in result.samples)

    def test_empty_input_rejected(self, core):
        with pytest.raises(ValueError, match="empty"):
            core(VoltaV100).simulate("k", [], [])
        with pytest.raises(ValueError, match="same length"):
            core(VoltaV100).simulate("k", [[]], [0, 1])

    def test_invalid_sample_period_rejected(self, core):
        with pytest.raises(ValueError, match="sample_period"):
            core(VoltaV100, sample_period=0)


def build_fetch_pressure_cubin():
    """A kernel whose code footprint exceeds the V100 i-cache (12 KiB).

    With >768 static instructions the trace generator charges periodic
    instruction-fetch stalls, the stall class whose bookkeeping
    (``fetch_ready`` arming) the sampler must never touch.
    """
    builder = CubinBuilder(module_name="fetch_pressure")
    k = builder.kernel("fat_kernel", source_file="fat.cu")
    k.at_line(1)
    k.mov_imm(2, 0x100)
    k.mov_imm(8, 0)
    k.mov_imm(9, 4)
    k.at_line(2)
    k.isetp(0, 8, 9, "LT")
    with k.loop("body", predicate=p(0)):
        k.at_line(2)
        k.iadd(8, 8, imm(1))
        k.at_line(3)
        k.ldg(4, 2)
        for index in range(820):
            k.at_line(4 + index % 8)
            k.ffma(10 + index % 32, 4, 4, 10 + index % 32)
        k.at_line(2)
        k.isetp(0, 8, 9, "LT")
    k.exit()
    builder.add_function(k.build())
    return builder.build()


class TestObservationNeutrality:
    """Sampling must never perturb execution (the CUPTI profiler cannot).

    Regression guard for the heisenbug where ``record_sample`` re-evaluated
    a stale stall reason through ``check()``, which arms fetch timers,
    registers barrier arrivals and pops outstanding memory transactions —
    so changing ``sample_period`` changed the simulated timing.
    """

    PERIODS = (1, 3, 8, 32, 128)

    def _timing(self, core, traces, blocks, period):
        result = core(VoltaV100, sample_period=period).simulate(
            "toy_kernel", traces, blocks)
        return (result.wave_cycles, result.issued_instructions)

    @pytest.mark.parametrize("workload", [
        WorkloadSpec(loop_trip_counts={12: 12}),
        WorkloadSpec(loop_trip_counts={12: lambda w, t: 20 if w % 4 == 0 else 3}),
        WorkloadSpec(loop_trip_counts={12: 10}, uncoalesced_lines={13},
                     uncoalesced_transactions=8),
    ], ids=["uniform", "imbalanced-barrier", "memory-throttle"])
    def test_wave_cycles_invariant_across_sample_periods(self, core, toy_cubin, workload):
        traces, blocks = build_traces(toy_cubin, "toy_kernel", workload, num_warps=12)
        timings = {
            period: self._timing(core, traces, blocks, period) for period in self.PERIODS
        }
        assert len(set(timings.values())) == 1, timings

    def test_fetch_stall_timing_invariant_across_sample_periods(self, core):
        cubin = build_fetch_pressure_cubin()
        structure = build_program_structure(cubin)
        workload = WorkloadSpec()
        traces = [generate_warp_trace(structure, "fat_kernel", workload, VoltaV100,
                                      warp, 8) for warp in range(8)]
        assert any(op.fetch_stall for trace in traces for op in trace), (
            "kernel must exceed the i-cache for this regression test")
        blocks = [warp // 4 for warp in range(8)]
        timings = {}
        for period in self.PERIODS:
            result = core(VoltaV100, sample_period=period).simulate(
                "fat_kernel", traces, blocks)
            timings[period] = (result.wave_cycles, result.issued_instructions)
        assert len(set(timings.values())) == 1, timings

    def test_sampling_density_only_changes_sample_counts(self, core, toy_traces):
        traces, blocks = toy_traces
        dense = core(VoltaV100, sample_period=2).simulate(
            "toy_kernel", traces, blocks)
        sparse = core(VoltaV100, sample_period=64).simulate(
            "toy_kernel", traces, blocks)
        assert dense.total_samples > sparse.total_samples
        assert dense.wave_cycles == sparse.wave_cycles
        assert dense.issued_instructions == sparse.issued_instructions


class TestMemoryThrottle:
    def test_uncoalesced_accesses_cause_throttle_stalls(self, core):
        builder = CubinBuilder()
        k = builder.kernel("throttle_kernel", source_file="t.cu")
        k.at_line(1)
        k.mov_imm(2, 0)
        k.mov_imm(3, 0)
        k.mov_imm(8, 0)
        k.mov_imm(9, 1 << 16)
        k.at_line(2)
        k.isetp(0, 8, 9, "LT")
        with k.loop("l", predicate=p(0)):
            k.at_line(2)
            k.iadd(8, 8, imm(1))
            k.at_line(3)
            for reg in range(4):
                k.ldg(10 + reg, 2, offset=4 * reg)
            k.at_line(4)
            k.ffma(20, 10, 11, 20)
            k.at_line(2)
            k.isetp(0, 8, 9, "LT")
        k.exit()
        builder.add_function(k.build())
        cubin = builder.build()
        workload = WorkloadSpec(loop_trip_counts={2: 8}, uncoalesced_lines={3},
                                uncoalesced_transactions=8)
        traces, blocks = build_traces(cubin, "throttle_kernel", workload,
                                      num_warps=32, warps_per_block=8)
        result = core(VoltaV100, sample_period=4).simulate(
            "throttle_kernel", traces, blocks)
        totals = {}
        for counts in result.stall_counts.values():
            for reason, count in counts.items():
                totals[reason] = totals.get(reason, 0) + count
        assert totals.get(StallReason.MEMORY_THROTTLE, 0) > 0
