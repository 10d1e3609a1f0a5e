"""The vector (packed-array) simulator core: identity, layout, fallback."""

import dataclasses

import pytest

from repro.arch.machine import VoltaV100
from repro.sampling import vector
from repro.sampling.memory import MemoryHierarchy, sector_pattern
from repro.sampling.simulator import SMSimulator
from repro.sampling.trace import generate_warp_trace
from repro.sampling.vector import (
    DEFAULT_BACKEND,
    SIMULATOR_BACKENDS,
    VectorSMSimulator,
    check_simulator_backend,
    make_sm_simulator,
    resolve_simulator_backend,
    vector_backend_available,
)
from repro.structure.program import build_program_structure

np = pytest.importorskip("numpy")


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


class TestScoreboard:
    def test_scoreboard_array_shape_and_dtype(self, toy_traces):
        traces, blocks = toy_traces
        simulator = VectorSMSimulator(VoltaV100, sample_period=32)
        assert simulator.scoreboard_array().shape == (0, 0)
        simulator.simulate("toy_kernel", traces, blocks)
        board = simulator.scoreboard_array()
        assert board.dtype == np.int64
        assert board.shape[0] == len(traces)
        assert board.shape[1] > 0
        # Registers were written: at least one entry advanced past cycle 0.
        assert int(board.max()) > 0


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


class TestBackendResolution:
    def test_valid_backends(self):
        assert SIMULATOR_BACKENDS == ("object", "vector")
        for backend in SIMULATOR_BACKENDS:
            assert check_simulator_backend(backend) == backend

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            check_simulator_backend("gpu")
        with pytest.raises(ValueError, match="unknown simulator backend"):
            resolve_simulator_backend("gpu")

    def test_none_resolves_to_default(self, monkeypatch):
        monkeypatch.delenv(vector.BACKEND_ENV_VAR, raising=False)
        assert resolve_simulator_backend(None) == DEFAULT_BACKEND

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(vector.BACKEND_ENV_VAR, "object")
        assert resolve_simulator_backend(None) == "object"
        # An explicit argument wins over the environment.
        assert resolve_simulator_backend("vector") == "vector"

    def test_vector_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vector, "_np", None)
        assert not vector_backend_available()
        assert resolve_simulator_backend("vector") == "object"
        assert resolve_simulator_backend(None) == "object"
        with pytest.raises(RuntimeError, match="requires numpy"):
            VectorSMSimulator(VoltaV100)

    def test_factory_builds_the_resolved_core(self):
        assert isinstance(
            make_sm_simulator(VoltaV100, simulator_backend="vector"), VectorSMSimulator
        )
        assert isinstance(
            make_sm_simulator(VoltaV100, simulator_backend="object"), SMSimulator
        )

    def test_factory_forwards_configuration(self):
        simulator = make_sm_simulator(
            VoltaV100, sample_period=16, keep_samples=True,
            max_cycles=1000, memory_model="hierarchy", simulator_backend="vector",
        )
        assert simulator.sample_period == 16
        assert simulator.keep_samples is True
        assert simulator.max_cycles == 1000
        assert simulator.memory_model == "hierarchy"


class TestInputValidation:
    def test_mismatched_blocks_rejected(self, toy_traces):
        traces, blocks = toy_traces
        with pytest.raises(ValueError, match="same length"):
            VectorSMSimulator(VoltaV100).simulate("toy_kernel", traces, blocks[:-1])

    def test_empty_warp_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            VectorSMSimulator(VoltaV100).simulate("toy_kernel", [], [])

    def test_bad_sample_period_rejected(self):
        with pytest.raises(ValueError, match="sample_period"):
            VectorSMSimulator(VoltaV100, sample_period=0)
