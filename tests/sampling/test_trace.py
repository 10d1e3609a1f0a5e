"""Tests for dynamic trace generation."""

import dataclasses
import gc
import weakref

import pytest

from repro.api.request import AdvisingRequest
from repro.api.session import AdvisingSession
from repro.arch.machine import VoltaV100
from repro.sampling.trace import (
    _block_records,
    cached_latency,
    generate_warp_trace,
    instruction_meta,
)
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import build_program_structure
from repro.workloads.apps import quicksilver
from repro.workloads.registry import case_by_name
from repro.workloads.rodinia import myocyte


@pytest.fixture(scope="module")
def toy_structure(toy_cubin):
    return build_program_structure(toy_cubin)


def trace_for(structure, workload, warp_id=0):
    return generate_warp_trace(structure, "toy_kernel", workload, VoltaV100, warp_id, 16)


def test_loop_trip_count_controls_iterations(toy_structure):
    short = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 3}))
    long = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 12}))
    assert len(long) > len(short)
    assert sum(1 for op in long if op.opcode == "LDG") == 12
    assert sum(1 for op in short if op.opcode == "LDG") == 3


def test_trace_is_deterministic(toy_structure):
    workload = WorkloadSpec(loop_trip_counts={12: 5}, seed=3)
    a = trace_for(toy_structure, workload)
    b = trace_for(toy_structure, workload)
    assert [op.offset for op in a] == [op.offset for op in b]


def test_trace_ends_with_exit(toy_structure):
    trace = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2}))
    assert trace[-1].opcode == "EXIT"


def test_memory_ops_get_latency_and_transactions(toy_structure):
    trace = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2},
                                                  uncoalesced_lines={13},
                                                  uncoalesced_transactions=4))
    loads = [op for op in trace if op.opcode == "LDG"]
    assert all(op.latency > 100 for op in loads)
    assert all(op.transactions == 4 for op in loads)
    alu = [op for op in trace if op.opcode == "FFMA"]
    assert all(op.latency == 0 and op.transactions == 0 for op in alu)


def test_memory_latency_scale_applies(toy_structure):
    base = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2}, seed=1))
    scaled = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2}, seed=1,
                                                   memory_latency_scale=2.0))
    base_latency = [op.latency for op in base if op.opcode == "LDG"]
    scaled_latency = [op.latency for op in scaled if op.opcode == "LDG"]
    assert all(s > b for s, b in zip(scaled_latency, base_latency))


def test_max_trace_ops_bounds_runaway_loops(toy_structure):
    workload = WorkloadSpec(loop_trip_counts={12: 10_000_000}, max_trace_ops=500)
    trace = trace_for(toy_structure, workload)
    assert len(trace) == 500


def op_fields(op):
    return tuple(getattr(op, field.name) for field in dataclasses.fields(op))


def shared_op_ids(structure):
    """Identities of every op the walk shares across traces."""
    ids = set()
    for name, function in structure.functions.items():
        for block in function.cfg.blocks:
            for run, _ in _block_records(block, name):
                ids.update(id(op) for op in run)
    return ids


def test_every_trace_cap_yields_a_prefix_of_the_full_trace(toy_structure):
    workload = WorkloadSpec(loop_trip_counts={12: 4}, seed=5)
    full = trace_for(toy_structure, workload)
    assert any(id(op) in shared_op_ids(toy_structure) for op in full)
    expected = [op_fields(op) for op in full]
    for cap in range(1, len(full) + 1):
        capped = trace_for(toy_structure, dataclasses.replace(workload, max_trace_ops=cap))
        assert [op_fields(op) for op in capped] == expected[:cap], cap


def test_fetch_stalls_never_leak_through_shared_ops():
    setup = myocyte.baseline()
    structure = build_program_structure(setup.cubin)
    first = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 0, 8)
    stalls = [op.fetch_stall for op in first]
    second = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 1, 8)
    assert any(op.fetch_stall > 0 for op in second)
    assert [op.fetch_stall for op in first] == stalls
    shared = shared_op_ids(structure)
    assert any(id(op) in shared for op in first + second)
    assert not any(
        id(op) in shared for op in first + second if op.fetch_stall > 0
    )


def test_calls_descend_into_device_functions():
    setup = quicksilver.baseline()
    structure = build_program_structure(setup.cubin)
    trace = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 0, 8)
    functions = {op.function for op in trace}
    assert "MC_Segment_Outcome" in functions
    assert "MacroscopicCrossSection" in functions


def test_fetch_stalls_charged_when_footprint_exceeds_icache():
    setup = myocyte.baseline()
    structure = build_program_structure(setup.cubin)
    assert structure.function(setup.kernel).function.code_size > VoltaV100.instruction_cache_bytes
    trace = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 0, 8)
    assert any(op.fetch_stall > 0 for op in trace)


def test_no_fetch_stalls_for_small_kernels(toy_structure):
    trace = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 4}))
    assert all(op.fetch_stall == 0 for op in trace)


class TestMemosLiveOnTheirObjects:
    """Trace memos are per object and die with the program they describe."""

    @pytest.mark.parametrize("scope", ["single_wave", "whole_gpu"])
    def test_a_finished_advise_leaves_nothing_pinned(self, scope):
        setup = case_by_name("rodinia/nw:warp_balance").build_baseline()
        instruction = weakref.ref(setup.cubin.function(setup.kernel).instructions[0])
        request = AdvisingRequest(
            source="binary", cubin=setup.cubin, kernel=setup.kernel,
            config=setup.config, workload=setup.workload,
        )
        result = AdvisingSession(simulation_scope=scope).advise(request)
        assert result.ok, result.error
        del setup, request, result
        gc.collect()
        assert instruction() is None

    def test_instruction_meta_is_memoized_per_instruction(self, toy_structure):
        instruction = toy_structure.function("toy_kernel").function.instructions[0]
        assert instruction_meta(instruction) is instruction_meta(instruction)
        twin = dataclasses.replace(instruction)
        assert twin == instruction
        assert instruction_meta(twin) is not instruction_meta(instruction)

    def test_block_records_are_memoized_per_block(self, toy_structure):
        block = toy_structure.function("toy_kernel").cfg.blocks[0]
        assert _block_records(block, "toy_kernel") is _block_records(block, "toy_kernel")

    def test_latency_overrides_never_share_a_latency(self):
        slow = dataclasses.replace(VoltaV100, latency_overrides={"LDG": 999})
        assert slow.latency("LDG") == 999 != VoltaV100.latency("LDG")
        for _ in range(2):
            assert cached_latency(VoltaV100, "LDG") == VoltaV100.latency("LDG")
            assert cached_latency(slow, "LDG") == 999
