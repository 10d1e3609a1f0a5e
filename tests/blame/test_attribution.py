"""Tests for Equation-1 stall apportioning and the full blame pipeline."""

import pytest

from repro.arch.machine import VoltaV100
from repro.blame.attribution import InstructionBlamer
from repro.blame.classification import classify_source
from repro.blame.coverage import single_dependency_coverage
from repro.blame.graph import build_dependency_graph
from repro.blame.pruning import prune_cold_edges
from repro.sampling.stall_reasons import DetailedStallReason, StallReason
from repro.sass import parse_instruction


class TestClassification:
    """Figure 5: fine-grained classification by the source opcode."""

    @pytest.mark.parametrize(
        "text,reason,expected",
        [
            ("LDC.32 R0, [R4]", StallReason.MEMORY_DEPENDENCY,
             DetailedStallReason.CONSTANT_MEMORY_DEPENDENCY),
            ("LDL.32 R0, [R4]", StallReason.MEMORY_DEPENDENCY,
             DetailedStallReason.LOCAL_MEMORY_DEPENDENCY),
            ("LDG.E.32 R0, [R2]", StallReason.MEMORY_DEPENDENCY,
             DetailedStallReason.GLOBAL_MEMORY_DEPENDENCY),
            ("LDS.32 R0, [R16]", StallReason.EXECUTION_DEPENDENCY,
             DetailedStallReason.SHARED_MEMORY_DEPENDENCY),
            ("STG.E.32 [R2], R5", StallReason.EXECUTION_DEPENDENCY,
             DetailedStallReason.WAR_DEPENDENCY),
            ("IMAD R0, R4, R5, R6", StallReason.EXECUTION_DEPENDENCY,
             DetailedStallReason.ARITHMETIC_DEPENDENCY),
            ("BAR.SYNC", StallReason.SYNCHRONIZATION,
             DetailedStallReason.SYNCHRONIZATION),
        ],
    )
    def test_source_classification(self, text, reason, expected):
        assert classify_source(reason, parse_instruction(text)) is expected

    def test_unknown_source_defaults(self):
        assert classify_source(StallReason.MEMORY_DEPENDENCY, None) is (
            DetailedStallReason.GLOBAL_MEMORY_DEPENDENCY
        )


class TestBlamePipeline:
    def test_stall_totals_are_conserved(self, toy_profiled, toy_blame):
        """Apportioning redistributes stalls without creating or losing any."""
        profile = toy_profiled.profile
        dependent_total = sum(
            count
            for entry in profile.instructions.values()
            for reason, count in entry.stalls.items()
            if reason.is_dependent or reason.is_stall
        )
        blamed_total = sum(edge.stalls for edge in toy_blame.edges)
        assert blamed_total == pytest.approx(dependent_total, rel=1e-6)

    def test_memory_stalls_blamed_on_the_load(self, toy_profiled, toy_blame, toy_cubin):
        function = toy_cubin.function("toy_kernel")
        load_offset = [i.offset for i in function.instructions if i.opcode == "LDG"][0]
        blamed = toy_blame.blamed.get(("toy_kernel", load_offset), {})
        assert blamed.get(DetailedStallReason.GLOBAL_MEMORY_DEPENDENCY, 0) > 0

    def test_synchronization_stays_at_the_barrier(self, toy_blame, toy_cubin):
        function = toy_cubin.function("toy_kernel")
        bar_offset = [i.offset for i in function.instructions if i.opcode == "BAR"][0]
        sync_edges = [edge for edge in toy_blame.edges
                      if edge.reason is StallReason.SYNCHRONIZATION]
        if sync_edges:  # synchronization stalls occur whenever warps are imbalanced
            assert all(edge.source[1] == bar_offset or edge.dest[1] == bar_offset
                       for edge in sync_edges)

    def test_top_sources_sorted_descending(self, toy_blame):
        top = toy_blame.top_sources(5)
        values = [stalls for _key, stalls in top]
        assert values == sorted(values, reverse=True)

    def test_blamed_edges_have_distances(self, toy_blame):
        for edge in toy_blame.edges:
            if not edge.is_self_blame:
                assert edge.distance is not None and edge.distance >= 0


class TestEquation1:
    def test_figure4d_equal_apportioning(self):
        """Figure 4d: LDC has 2x the issue samples but 2x the path length of
        LDG, so both sources receive the same share of the 4 stalls."""
        from repro.cubin.binary import Cubin, Function, FunctionVisibility
        from repro.sass import parse_program
        from repro.sampling.sample import KernelProfile, LaunchConfig, LaunchStatistics
        from repro.structure.program import build_program_structure

        # Two paths of different lengths reach the IADD: a short one through
        # the LDG arm (1 filler op) and a long one through the LDC arm
        # (3 filler ops); issue samples are set to 1 and 2 respectively.
        program = parse_program(
            """
            ISETP.LT.AND P0, R9, R8
            @P0 BRA SHORT
            LDC.32 R0, [R4]
            FFMA R20, R20, R20, R20
            FFMA R21, R21, R21, R21
            FFMA R22, R22, R22, R22
            BRA JOIN
            SHORT:
            LDG.E.32 R0, [R2]
            FFMA R23, R23, R23, R23
            JOIN:
            IADD R8, R0, R7
            EXIT
            """
        )
        function = Function("k", FunctionVisibility.GLOBAL, program)
        cubin = Cubin(arch_flag="sm_70", functions={"k": function})
        structure = build_program_structure(cubin)

        by_opcode = {i.opcode: i for i in program}
        ldg, ldc, iadd = by_opcode["LDG"], by_opcode["LDC"], by_opcode["IADD"]

        statistics = LaunchStatistics(
            kernel="k", config=LaunchConfig(1, 32), registers_per_thread=32,
            blocks_per_sm=1, warps_per_sm=1, warps_per_scheduler=1.0, occupancy=0.02,
            occupancy_limiter="grid", waves=1.0, wave_cycles=100, kernel_cycles=100,
            sample_period=1,
        )
        profile = KernelProfile(kernel="k", statistics=statistics)
        profile.record_issue("k", ldg.offset, 1)
        profile.record_issue("k", ldc.offset, 2)
        profile.record_stall("k", iadd.offset, StallReason.MEMORY_DEPENDENCY, 4)

        blame = InstructionBlamer(VoltaV100).blame(profile, structure)
        ldg_share = blame.blamed_stalls(("k", ldg.offset))
        ldc_share = blame.blamed_stalls(("k", ldc.offset))
        assert ldg_share + ldc_share == pytest.approx(4.0)
        # The longer path cancels the larger issue count: the shares are equal
        # within the tolerance allowed by the +1 path-length smoothing.
        assert ldg_share == pytest.approx(ldc_share, rel=0.35)


class TestCoverage:
    def test_pruning_does_not_decrease_coverage(self, toy_profiled):
        graph = build_dependency_graph(toy_profiled.profile, toy_profiled.structure)
        before = single_dependency_coverage(graph)
        pruned = graph.copy()
        prune_cold_edges(pruned, toy_profiled.structure, VoltaV100)
        after = single_dependency_coverage(pruned)
        assert 0.0 <= before <= 1.0
        assert 0.0 <= after <= 1.0
        assert after >= before

    def test_empty_graph_has_full_coverage(self):
        from repro.blame.graph import DependencyGraph

        assert single_dependency_coverage(DependencyGraph()) == 1.0
