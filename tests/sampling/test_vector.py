"""The production (packed-array) simulator core: identity and layout."""

import dataclasses

import pytest

from repro.arch.machine import VoltaV100
from repro.sampling.memory import MemoryHierarchy, sector_pattern
from repro.sampling.simulator import SMSimulator
from repro.sampling.trace import generate_warp_trace
from repro.sampling.vector import VectorSMSimulator
from repro.structure.program import build_program_structure


def build_traces(cubin, kernel, workload, num_warps, warps_per_block=4):
    structure = build_program_structure(cubin)
    traces, blocks = [], []
    for warp in range(num_warps):
        traces.append(
            generate_warp_trace(structure, kernel, workload, VoltaV100, warp, num_warps)
        )
        blocks.append(warp // warps_per_block)
    return traces, blocks


@pytest.fixture(scope="module")
def toy_traces(toy_cubin, toy_workload):
    return build_traces(toy_cubin, "toy_kernel", toy_workload, num_warps=8)


def result_facts(result):
    """Everything a SimulationResult reports, in comparable form."""
    memory = result.memory.to_dict() if result.memory is not None else None
    return (
        result.kernel,
        result.wave_cycles,
        result.stall_counts,
        result.issue_counts,
        result.active_samples,
        result.latency_samples,
        result.issued_instructions,
        [dataclasses.astuple(sample) for sample in result.samples],
        memory,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
    @pytest.mark.parametrize("sample_period", [8, 32, 128])
    def test_matches_object_core(self, toy_traces, memory_model, sample_period):
        traces, blocks = toy_traces
        kwargs = dict(
            sample_period=sample_period, keep_samples=True, memory_model=memory_model
        )
        expected = SMSimulator(VoltaV100, **kwargs).simulate("toy_kernel", traces, blocks)
        actual = VectorSMSimulator(VoltaV100, **kwargs).simulate(
            "toy_kernel", traces, blocks
        )
        assert result_facts(actual) == result_facts(expected)

    def test_matches_object_core_with_sm_id(self, toy_traces):
        traces, blocks = toy_traces
        expected = SMSimulator(VoltaV100, sample_period=4, keep_samples=True).simulate(
            "toy_kernel", traces, blocks, sm_id=7
        )
        actual = VectorSMSimulator(
            VoltaV100, sample_period=4, keep_samples=True
        ).simulate("toy_kernel", traces, blocks, sm_id=7)
        assert result_facts(actual) == result_facts(expected)
        assert all(sample.sm_id == 7 for sample in actual.samples)


class TestObservationNeutrality:
    @pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
    def test_sampling_never_perturbs_execution(self, toy_traces, memory_model):
        """Execution facts are identical across sample periods 8/32/128."""
        traces, blocks = toy_traces
        facts = []
        for period in (8, 32, 128):
            result = VectorSMSimulator(
                VoltaV100, sample_period=period, memory_model=memory_model
            ).simulate("toy_kernel", traces, blocks)
            memory = result.memory.to_dict() if result.memory is not None else None
            facts.append(
                (result.wave_cycles, result.issued_instructions, memory)
            )
        assert facts[0] == facts[1] == facts[2]


class TestSectorPattern:
    """The pack path shifts a phase-relative pattern; it must equal direct
    coalescing at every phase a whole-GPU trace can hit."""

    @pytest.mark.parametrize("stride", [1, 4, 8, 32, 36, 128])
    def test_shifted_pattern_matches_hierarchy_at_every_phase(self, toy_traces, stride):
        hierarchy = MemoryHierarchy(VoltaV100.memory, warp_size=VoltaV100.warp_size)
        sector_bytes = VoltaV100.memory.sector_bytes
        assert sector_bytes == 32
        traces, _ = toy_traces
        op = next(op for trace in traces for op in trace if op.transactions)
        for phase in range(sector_bytes):
            address = 0x1000 + phase
            probe = dataclasses.replace(op, address=address, stride_bytes=stride)
            pattern = sector_pattern(phase, stride, VoltaV100.warp_size, sector_bytes)
            shifted = [address - phase + sector for sector in pattern]
            assert shifted == hierarchy.sector_addresses(probe), (phase, stride)
