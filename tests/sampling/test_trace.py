"""Tests for dynamic trace generation.

A trace is a list of the simulator's packed records (layout in
``docs/SIMULATOR.md``): slot 9 is the offset, 10 the fetch stall, 11 the
memory latency increment, 13 the transactions, 14/15 the address and
stride, and ``rec[17][rec[16]]`` the op's ``(function, offset)``.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.api.request import AdvisingRequest
from repro.api.session import AdvisingSession
from repro.arch.machine import TuringLike, VoltaV100
from repro.sampling.trace import (
    _F_FETCH,
    cached_latency,
    generate_warp_trace,
    instruction_meta,
)
from repro.sampling.vector import VectorSMSimulator
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import build_program_structure
from repro.workloads.apps import quicksilver
from repro.workloads.registry import case_by_name
from repro.workloads.rodinia import myocyte


@pytest.fixture(scope="module")
def toy_structure(toy_cubin):
    return build_program_structure(toy_cubin)


def trace_for(structure, workload, warp_id=0, architecture=VoltaV100):
    return generate_warp_trace(structure, "toy_kernel", workload, architecture, warp_id, 16)


def site_of(record):
    """The ``(function, offset)`` a record charges its samples to."""
    return record[17][record[16]]


def opcode_of(structure, record):
    function, offset = site_of(record)
    return structure.function(function).instruction_at(offset).opcode


def test_loop_trip_count_controls_iterations(toy_structure):
    short = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 3}))
    long = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 12}))
    assert len(long) > len(short)
    assert sum(1 for rec in long if opcode_of(toy_structure, rec) == "LDG") == 12
    assert sum(1 for rec in short if opcode_of(toy_structure, rec) == "LDG") == 3


def test_trace_is_deterministic(toy_structure):
    workload = WorkloadSpec(loop_trip_counts={12: 5}, seed=3)
    a = trace_for(toy_structure, workload)
    b = trace_for(toy_structure, workload)
    assert [rec[9] for rec in a] == [rec[9] for rec in b]


def test_trace_ends_with_exit(toy_structure):
    trace = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2}))
    assert opcode_of(toy_structure, trace[-1]) == "EXIT"


def test_memory_ops_get_latency_and_transactions(toy_structure):
    trace = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2},
                                                  uncoalesced_lines={13},
                                                  uncoalesced_transactions=4))
    loads = [rec for rec in trace if opcode_of(toy_structure, rec) == "LDG"]
    assert all(rec[11] > 100 for rec in loads)
    assert all(rec[13] == 4 for rec in loads)
    # No latency and no transactions pack as mem_inc 1, read_hold 20 and
    # one transaction, with no address and no stride.
    alu = [rec for rec in trace if opcode_of(toy_structure, rec) == "FFMA"]
    assert alu and all(rec[11:16] == (1, 20, 1, 0, 0) for rec in alu)


def test_memory_latency_scale_applies(toy_structure):
    base = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2}, seed=1))
    scaled = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 2}, seed=1,
                                                   memory_latency_scale=2.0))
    base_latency = [rec[11] for rec in base if opcode_of(toy_structure, rec) == "LDG"]
    scaled_latency = [rec[11] for rec in scaled if opcode_of(toy_structure, rec) == "LDG"]
    assert all(s > b for s, b in zip(scaled_latency, base_latency))


def test_max_trace_ops_bounds_runaway_loops(toy_structure):
    workload = WorkloadSpec(loop_trip_counts={12: 10_000_000}, max_trace_ops=500)
    trace = trace_for(toy_structure, workload)
    assert len(trace) == 500


def block_plans(structure):
    """Every block's memoized walk plan, ``(steps, exit)``."""
    return [
        block._trace_plan[2]
        for function in structure.functions.values()
        for block in function.cfg.blocks
        if "_trace_plan" in block.__dict__
    ]


def shared_record_ids(structure):
    """Identities of every record the walk shares across traces."""
    ids = set()
    for steps, _ in block_plans(structure):
        for run, step in steps:
            ids.update(id(rec) for rec in run)
            if step is not None and step[0] is not None:
                ids.add(id(step[0]))
    return ids


def test_every_trace_cap_yields_a_prefix_of_the_full_trace(toy_structure):
    workload = WorkloadSpec(loop_trip_counts={12: 4}, seed=5)
    full = trace_for(toy_structure, workload)
    assert any(id(rec) in shared_record_ids(toy_structure) for rec in full)
    for cap in range(1, len(full) + 1):
        capped = trace_for(toy_structure, dataclasses.replace(workload, max_trace_ops=cap))
        assert capped == full[:cap], cap


def test_fetch_stalls_never_leak_through_shared_records():
    setup = myocyte.baseline()
    structure = build_program_structure(setup.cubin)
    first = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 0, 8)
    stalls = [rec[10] for rec in first]
    second = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 1, 8)
    assert any(rec[10] > 0 for rec in second)
    assert [rec[10] for rec in first] == stalls
    shared = shared_record_ids(structure)
    assert any(id(rec) in shared for rec in first + second)
    charged = [rec for rec in first + second if rec[10] > 0]
    assert not any(id(rec) in shared for rec in charged)
    assert all(rec[0] & _F_FETCH for rec in charged)
    assert not any(rec[0] & _F_FETCH for rec in first + second if rec[10] == 0)


def test_calls_descend_into_device_functions():
    setup = quicksilver.baseline()
    structure = build_program_structure(setup.cubin)
    trace = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 0, 8)
    functions = {site_of(rec)[0] for rec in trace}
    assert "MC_Segment_Outcome" in functions
    assert "MacroscopicCrossSection" in functions


def test_fetch_stalls_charged_when_footprint_exceeds_icache():
    setup = myocyte.baseline()
    structure = build_program_structure(setup.cubin)
    assert structure.function(setup.kernel).function.code_size > VoltaV100.instruction_cache_bytes
    trace = generate_warp_trace(structure, setup.kernel, setup.workload, VoltaV100, 0, 8)
    assert any(rec[10] > 0 for rec in trace)


def test_no_fetch_stalls_for_small_kernels(toy_structure):
    trace = trace_for(toy_structure, WorkloadSpec(loop_trip_counts={12: 4}))
    assert all(rec[10] == 0 for rec in trace)


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

    def test_block_plans_are_memoized_per_block(self, toy_structure):
        trace_for(toy_structure, WorkloadSpec())
        block = toy_structure.function("toy_kernel").cfg.blocks[0]
        plan = block._trace_plan
        trace_for(toy_structure, WorkloadSpec(), warp_id=1)
        assert block._trace_plan is plan

    def test_latency_overrides_never_share_a_latency(self):
        slow = dataclasses.replace(VoltaV100, latency_overrides={"LDG": 999})
        assert slow.latency("LDG") == 999 != VoltaV100.latency("LDG")
        for _ in range(2):
            assert cached_latency(VoltaV100, "LDG") == VoltaV100.latency("LDG")
            assert cached_latency(slow, "LDG") == 999


def keyed(trace):
    """A trace's records with the site number replaced by its key, so traces
    of different program objects compare."""
    return [rec[:16] + (site_of(rec),) for rec in trace]


class TestPlanKeying:
    """A block's plan holds one architecture's latencies and one program's
    site numbers: a plan keyed too loosely would carry them into another."""

    WORKLOAD = WorkloadSpec(loop_trip_counts={12: 3})

    def test_an_architecture_switch_gives_fresh_records(self, toy_cubin):
        structure = build_program_structure(toy_cubin)
        volta = trace_for(structure, self.WORKLOAD)
        turing = trace_for(structure, self.WORKLOAD, architecture=TuringLike)
        fresh = trace_for(build_program_structure(toy_cubin), self.WORKLOAD,
                          architecture=TuringLike)
        assert keyed(turing) == keyed(fresh)
        # The two architectures' LDG latencies differ, so a stale plan shows.
        assert keyed(volta) != keyed(turing)
        assert keyed(trace_for(structure, self.WORKLOAD)) == keyed(volta)

    def test_two_programs_give_fresh_records(self, toy_cubin):
        """Two programs built from one binary share every ``Instruction``
        but number their sites in their own tables."""
        first = build_program_structure(toy_cubin)
        second = build_program_structure(toy_cubin)
        setup = quicksilver.baseline()
        other = build_program_structure(setup.cubin)
        a = trace_for(first, self.WORKLOAD)
        b = trace_for(second, self.WORKLOAD)
        c = generate_warp_trace(other, setup.kernel, setup.workload, VoltaV100, 0, 8)
        fresh_c = generate_warp_trace(
            build_program_structure(setup.cubin), setup.kernel, setup.workload,
            VoltaV100, 0, 8,
        )
        assert a == trace_for(first, self.WORKLOAD)
        assert keyed(b) == keyed(a)
        assert keyed(c) == keyed(fresh_c)
        tables = [{id(rec[17]) for rec in trace} for trace in (a, b, c)]
        assert all(len(table) == 1 for table in tables)
        assert len(set.union(*tables)) == 3

    def test_one_simulation_rejects_warps_of_two_programs(self, toy_cubin):
        a = trace_for(build_program_structure(toy_cubin), self.WORKLOAD)
        b = trace_for(build_program_structure(toy_cubin), self.WORKLOAD)
        simulator = VectorSMSimulator(VoltaV100)
        with pytest.raises(ValueError, match="one program"):
            simulator.simulate("toy_kernel", [a, b], [0, 0])
