"""Tests for the memory-hierarchy model (coalescing, L1/L2/DRAM, MSHRs)."""

from collections import OrderedDict

import pytest

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.arch.machine import MemoryHierarchyParameters, VoltaV100
from repro.sampling.memory import (
    MEMORY_MODELS,
    MemoryHierarchy,
    MemoryStatistics,
    SectorCache,
    TransactionBudget,
    check_memory_model,
    coalesce,
    sector_pattern,
)
from repro.sampling.stall_reasons import StallReason
from repro.sampling.trace import _F_THROTTLE, generate_warp_trace
from repro.sampling.vector import VectorSMSimulator
from repro.structure.program import build_program_structure
from repro.workloads.memory_patterns import (
    cache_resident_workload,
    memory_microbenchmark,
    strided_workload,
    streaming_workload,
)


def _params(**overrides) -> MemoryHierarchyParameters:
    defaults = dict(
        sector_bytes=32, l1_bytes=1024, l1_ways=2, l1_hit_latency=10,
        l1_sectors_per_cycle=4, l1_mshr_entries=4, l2_slice_bytes=4096,
        l2_ways=4, l2_hit_latency=50, dram_latency=200, dram_bytes_per_cycle=8,
    )
    defaults.update(overrides)
    return MemoryHierarchyParameters(**defaults)


def _sectors(address, stride_bytes):
    """The coalesced sectors of one warp access (32 threads, 32-byte sectors)."""
    return coalesce(address, stride_bytes, 32, 32)


class TestCheckMemoryModel:
    def test_accepts_known_models(self):
        for model in MEMORY_MODELS:
            assert check_memory_model(model) == model

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown memory model"):
            check_memory_model("magic")


class TestSectorCache:
    """The LRU lookup, which runs inline in ``access_sectors``."""

    def test_miss_then_hit(self):
        hierarchy = MemoryHierarchy(_params())
        # The miss goes to DRAM: 4 transfer cycles + 200 latency.
        assert hierarchy.access_sectors([0], 0) == 204
        assert hierarchy.access_sectors([0], 300) == 310
        assert (hierarchy.l1.hits, hierarchy.l1.misses) == (1, 1)

    def test_lru_eviction_within_a_set(self):
        hierarchy = MemoryHierarchy(_params())  # L1: 16 sets x 2 ways
        l1 = hierarchy.l1
        set_stride = l1.num_sets * 32
        a, b, c = 0, set_stride, 2 * set_stride  # all map to set 0
        for sector in (a, b, c):  # c evicts a (LRU)
            hierarchy.access_sectors([sector], 0)
        hierarchy.access_sectors([b], 0)
        assert (l1.hits, l1.misses) == (1, 3)
        hierarchy.access_sectors([a], 0)  # was evicted; evicts c, not b
        assert (l1.hits, l1.misses) == (1, 4)
        assert l1.sets[0] == [b, a]

    def test_capacity_must_hold_one_set(self):
        with pytest.raises(ValueError):
            SectorCache(32, ways=4, sector_bytes=32)


class TestCoalescing:
    def test_unit_stride_touches_four_sectors(self):
        sectors = _sectors(address=0, stride_bytes=4)
        # 32 threads x 4 bytes = 128 bytes = 4 aligned 32-byte sectors.
        assert sectors == [0, 32, 64, 96]

    def test_full_stride_touches_one_sector_per_thread(self):
        sectors = _sectors(address=0, stride_bytes=128)
        assert len(sectors) == 32

    def test_unaligned_access_spills_into_an_extra_sector(self):
        sectors = _sectors(address=30, stride_bytes=4)
        # The footprint [30, 158) covers sectors 0..4.
        assert sectors == [0, 32, 64, 96, 128]

    def test_ops_without_addresses_fall_back_to_transaction_count(self):
        hierarchy = MemoryHierarchy(_params())
        first = hierarchy.fallback_sectors(3)
        second = hierarchy.fallback_sectors(3)
        assert len(first) == len(second) == 3
        # The rolling cursor keeps fallback accesses from aliasing.
        assert not set(first) & set(second)


class TestHierarchyTiming:
    def test_l1_hit_is_faster_than_l2_hit_is_faster_than_dram(self):
        hierarchy = MemoryHierarchy(_params())
        sectors = _sectors(address=0, stride_bytes=4)
        dram = hierarchy.access_sectors(sectors, 0)
        l1 = hierarchy.access_sectors(sectors, 0)
        assert dram > l1
        assert hierarchy.statistics.l1_hits == 4
        assert hierarchy.statistics.dram_sectors == 4

    def test_dram_bandwidth_serializes_transfers(self):
        parameters = _params(dram_bytes_per_cycle=8)  # 4 cycles per sector
        hierarchy = MemoryHierarchy(parameters)
        first = hierarchy.access_sectors(_sectors(address=0, stride_bytes=128), 0)
        hierarchy_idle = MemoryHierarchy(parameters)
        single = hierarchy_idle.access_sectors(_sectors(address=0, stride_bytes=4), 0)
        # 32 queued sectors wait behind each other at 4 cycles each; a
        # 4-sector access on an idle channel completes much earlier.
        assert first > single

    def test_mshr_backpressure_reports_a_recheck_cycle(self):
        hierarchy = MemoryHierarchy(_params(l1_mshr_entries=4))
        hierarchy.access_sectors(_sectors(address=0, stride_bytes=128), 0)  # 32 misses
        recheck = hierarchy.backpressure(1)
        assert recheck is not None and recheck > 1
        # Once every miss completes the pipeline accepts requests again.
        assert hierarchy.backpressure(recheck + 10_000) is None

    def test_refusal_returns_the_exact_reopen_cycle(self):
        """The returned cycle is when in-flight misses drop below the MSHR
        count, not the earliest completion (31 misses still in flight)."""
        hierarchy = MemoryHierarchy(_params(l1_mshr_entries=4))
        hierarchy.access_sectors(_sectors(address=0, stride_bytes=128), 0)  # 32 misses
        reopen = hierarchy.backpressure(1)
        assert hierarchy.backpressure(reopen - 1) == reopen
        assert hierarchy.backpressure(reopen) is None

    def test_an_allocation_drops_the_reopen_memo(self):
        hierarchy = MemoryHierarchy(_params(l1_mshr_entries=4))
        hierarchy.access_sectors(_sectors(address=0, stride_bytes=128), 0)
        reopen = hierarchy.backpressure(1)
        hierarchy.access_sectors(_sectors(address=1 << 20, stride_bytes=128), reopen)
        assert hierarchy.throttle_reopen is None
        later = hierarchy.backpressure(reopen)
        assert later > reopen and hierarchy.throttle_reopen == later


class _ReferenceLRU:
    """A set-associative LRU sector cache written the plain way: the oracle
    for the tag sets ``access_sectors`` keeps."""

    def __init__(self, cache: SectorCache):
        self.ways = cache.ways
        self.sets = [OrderedDict() for _ in range(cache.num_sets)]

    def access(self, sector: int) -> bool:
        tags = self.sets[(sector // 32) % len(self.sets)]
        if sector in tags:
            tags.move_to_end(sector)
            return True
        tags[sector] = None
        if len(tags) > self.ways:
            tags.popitem(last=False)
        return False

    def tags(self):
        return [list(tags) for tags in self.sets]


class TestShiftedPattern:
    def test_pattern_and_shift_match_the_explicit_sector_list(self):
        """An access given its phase pattern and shift leaves the hierarchy
        exactly as one given its coalesced sectors, and both keep the tag
        sets of a plain LRU.  The small geometry makes sets evict, and
        lines are revisited, so LRU order matters."""
        shifted = MemoryHierarchy(_params())
        explicit = MemoryHierarchy(_params())
        l1, l2 = _ReferenceLRU(shifted.l1), _ReferenceLRU(shifted.l2)
        now = 0
        for stride in (4, 8, 12, 128):
            for phase in range(32):
                for line in (0, 5, 1, 40, 5, 0, 97, 2):
                    address = line * 128 + phase
                    assert shifted.backpressure(now) == explicit.backpressure(now)
                    sectors = coalesce(address, stride, 32, 32)
                    completion = shifted.access_sectors(
                        sector_pattern(phase, stride, 32, 32), now, address - phase
                    )
                    assert completion == explicit.access_sectors(sectors, now, 0), (
                        stride, phase, line,
                    )
                    assert shifted._in_flight == explicit._in_flight
                    assert shifted.throttle_reopen == explicit.throttle_reopen
                    assert shifted.statistics == explicit.statistics
                    for sector in sectors:
                        if not l1.access(sector):
                            l2.access(sector)
                    assert shifted.l1.sets == l1.tags() and shifted.l2.sets == l2.tags()
                    now += 7
        stats = shifted.statistics
        assert stats.l1_hits and stats.l2_hits and stats.l2_misses


class TestStatistics:
    def test_counters_are_level_consistent(self):
        hierarchy = MemoryHierarchy(_params())
        for index in range(64):
            hierarchy.access_sectors(_sectors(address=index * 128, stride_bytes=4), index)
        stats = hierarchy.statistics
        assert stats.l1_hits + stats.l1_misses == stats.sectors
        assert stats.l2_hits + stats.l2_misses == stats.l1_misses
        assert stats.dram_sectors == stats.l2_misses
        assert stats.dram_bytes == stats.dram_sectors * 32

    def test_merge_accumulates_and_roundtrips(self):
        a = MemoryStatistics(requests=2, sectors=8, l1_hits=4, l1_misses=4,
                             l2_hits=2, l2_misses=2, dram_bytes=64)
        b = MemoryStatistics(requests=1, sectors=4, l1_hits=0, l1_misses=4,
                             l2_hits=4, l2_misses=0)
        a.merge(b)
        assert a.requests == 3 and a.sectors == 12 and a.l2_hits == 6
        assert MemoryStatistics.from_dict(a.to_dict()).to_dict() == a.to_dict()

    def test_rates(self):
        stats = MemoryStatistics(requests=2, sectors=16, l1_hits=12, l1_misses=4,
                                 l2_hits=3, l2_misses=1)
        assert stats.l1_hit_rate == 0.75
        assert stats.l2_hit_rate == 0.75
        assert stats.transactions_per_request == 8.0


@pytest.fixture(scope="module")
def micro_setup():
    cubin = memory_microbenchmark()
    structure = build_program_structure(cubin)
    return cubin, structure


def _traces(structure, workload, num_warps=8):
    traces, blocks = [], []
    for warp in range(num_warps):
        traces.append(generate_warp_trace(
            structure, "memory_stream", workload, VoltaV100, warp, num_warps))
        blocks.append(warp // 4)
    return traces, blocks


class TestSimulatorIntegration:
    def test_flat_is_the_default_and_unchanged(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, streaming_workload())
        default = VectorSMSimulator(VoltaV100, sample_period=8)
        explicit = VectorSMSimulator(VoltaV100, sample_period=8, memory_model="flat")
        a = default.simulate("memory_stream", traces, blocks)
        b = explicit.simulate("memory_stream", traces, blocks)
        assert default.memory_model == "flat"
        assert a.wave_cycles == b.wave_cycles
        assert a.stall_counts == b.stall_counts
        assert a.memory is None and b.memory is None

    def test_hierarchy_changes_timing_and_records_statistics(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, strided_workload())
        flat = VectorSMSimulator(VoltaV100, sample_period=8).simulate(
            "memory_stream", traces, blocks)
        hier = VectorSMSimulator(VoltaV100, sample_period=8, memory_model="hierarchy").simulate(
            "memory_stream", traces, blocks)
        assert hier.wave_cycles != flat.wave_cycles
        assert hier.memory is not None
        assert hier.memory.requests > 0
        assert hier.memory.transactions_per_request > 4.0  # uncoalesced

    def test_cache_resident_beats_streaming(self, micro_setup):
        _cubin, structure = micro_setup
        resident_traces, blocks = _traces(structure, cache_resident_workload())
        stream_traces, _ = _traces(structure, streaming_workload())
        simulator = VectorSMSimulator(VoltaV100, sample_period=8, memory_model="hierarchy")
        resident = simulator.simulate("memory_stream", resident_traces, blocks)
        stream = simulator.simulate("memory_stream", stream_traces, blocks)
        assert resident.memory.l1_hit_rate > 0.5
        assert resident.memory.l1_hit_rate > stream.memory.l1_hit_rate
        assert resident.wave_cycles < stream.wave_cycles

    def test_strided_access_produces_memory_throttle_stalls(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, strided_workload(), num_warps=16)
        result = VectorSMSimulator(VoltaV100, sample_period=2, memory_model="hierarchy").simulate(
            "memory_stream", traces, blocks)
        reasons = {}
        for counts in result.stall_counts.values():
            for reason, count in counts.items():
                reasons[reason] = reasons.get(reason, 0) + count
        assert reasons.get(StallReason.MEMORY_THROTTLE, 0) > 0

    def test_hierarchy_sampling_is_observation_neutral(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, strided_workload())
        cycles = {
            period: VectorSMSimulator(
                VoltaV100, sample_period=period, memory_model="hierarchy"
            ).simulate("memory_stream", traces, blocks).wave_cycles
            for period in (2, 8, 32, 128)
        }
        assert len(set(cycles.values())) == 1, cycles

    def test_hierarchy_is_deterministic(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, streaming_workload())
        simulator = VectorSMSimulator(VoltaV100, sample_period=8, memory_model="hierarchy")
        a = simulator.simulate("memory_stream", traces, blocks)
        b = simulator.simulate("memory_stream", traces, blocks)
        assert a.wave_cycles == b.wave_cycles
        assert a.memory.to_dict() == b.memory.to_dict()

    def test_rejects_unknown_memory_model(self):
        with pytest.raises(ValueError):
            VectorSMSimulator(VoltaV100, memory_model="banked")

    def test_every_request_calls_access_sectors(self, micro_setup, monkeypatch):
        """The core reaches the hierarchy through ``access_sectors``, looked
        up on the class at call time, once per request: a wrapper installed
        there (as perfbench's memory layer is) sees every access."""
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, strided_workload())
        calls = []
        access_sectors = MemoryHierarchy.access_sectors

        def counting(self, sectors, now, shift=0):
            calls.append(now)
            return access_sectors(self, sectors, now, shift)

        monkeypatch.setattr(MemoryHierarchy, "access_sectors", counting)
        result = VectorSMSimulator(
            VoltaV100, sample_period=8, memory_model="hierarchy"
        ).simulate("memory_stream", traces, blocks)
        assert result.memory.requests > 0
        assert len(calls) == result.memory.requests


class TestTransactionBudget:
    """The flat model's budget keeps the hierarchy's throttle contract."""

    def test_refusal_returns_the_exact_reopen_cycle(self):
        budget = TransactionBudget(limit=4)
        budget.admit(100, 3)
        budget.admit(50, 2)
        budget.admit(70, 2)  # completions 50 50 70 70 100 100 100
        reopen = budget.backpressure(1)
        # 7 in flight against 4: the 4th earliest completion leaves 3.
        assert reopen == 70 and budget.throttle_reopen == 70
        assert budget.backpressure(reopen - 1) == reopen
        assert budget.backpressure(reopen) is None

    def test_an_admission_drops_the_reopen_memo(self):
        budget = TransactionBudget(limit=2)
        budget.admit(10, 3)
        assert budget.backpressure(1) == 10
        budget.admit(5, 1)
        assert budget.throttle_reopen is None
        assert budget.backpressure(1) == 10


def _count_refusals(monkeypatch, budget_class, memory_model, case):
    """Backpressure refusals and admissions while profiling ``case``."""
    counts = {"refused": 0, "accepted": 0}
    backpressure = budget_class.backpressure

    def counting(self, now):
        recheck = backpressure(self, now)
        counts["refused" if recheck is not None else "accepted"] += 1
        return recheck

    monkeypatch.setattr(budget_class, "backpressure", counting)
    AdvisingSession(memory_model=memory_model).profile(request_for_case(case))
    return counts


class TestThrottleWakeups:
    def test_throttled_warps_sleep_until_an_mshr_frees(self, monkeypatch):
        """A throttled warp is refused about once per accepted request, not
        at every MSHR retirement (~100 refusals per request)."""
        counts = _count_refusals(
            monkeypatch, MemoryHierarchy, "hierarchy", "Minimod:code_reorder"
        )
        assert counts["accepted"] > 0
        assert counts["refused"] <= 2 * counts["accepted"], counts

    def test_flat_throttled_warps_sleep_until_the_budget_reopens(self, monkeypatch):
        """Under the flat model a throttled warp is refused about once per
        accepted request, not at every completion while the budget stays
        full (~8 refusals per request)."""
        counts = _count_refusals(
            monkeypatch, TransactionBudget, "flat",
            "ExaTENSOR:memory_transaction_reduction",
        )
        assert counts["accepted"] > 0
        assert counts["refused"] <= 2 * counts["accepted"], counts


class TestTraceAddresses:
    def test_global_loads_carry_addresses_and_strides(self, micro_setup):
        _cubin, structure = micro_setup
        trace = generate_warp_trace(
            structure, "memory_stream", strided_workload(stride_bytes=64),
            VoltaV100, warp_id=0, num_warps=8)
        kernel = structure.function("memory_stream")
        loads = [rec for rec in trace if kernel.instruction_at(rec[9]).opcode == "LDG"]
        assert loads and all(rec[0] & _F_THROTTLE for rec in loads)
        assert all(rec[15] == 64 for rec in loads)
        # Consecutive accesses advance through the working set.
        assert len({rec[14] for rec in loads}) > 1

    def test_addresses_do_not_perturb_flat_randomness(self, micro_setup):
        """Attaching addresses must not consume the workload's rng stream."""
        _cubin, structure = micro_setup
        workload = streaming_workload()
        with_addresses = generate_warp_trace(
            structure, "memory_stream", workload, VoltaV100, 0, 8)
        again = generate_warp_trace(
            structure, "memory_stream", workload, VoltaV100, 0, 8)
        assert [rec[11] for rec in with_addresses] == [rec[11] for rec in again]
