"""Tests for the KernelBuilder DSL and the control-code assembler pass."""

import pytest

from repro.cubin.builder import CubinBuilder, KernelBuilder, assign_control_codes, imm, p
from repro.cubin.binary import FunctionVisibility
from repro.sass import parse_program


class TestKernelBuilder:
    def test_offsets_are_contiguous_16_byte_words(self):
        k = KernelBuilder("k")
        k.mov_imm(1, 0)
        k.iadd(1, 1, imm(1))
        k.exit()
        function = k.build()
        assert [i.offset for i in function.instructions] == [0, 16, 32]

    def test_line_tracking(self):
        k = KernelBuilder("k", source_file="a.cu")
        k.at_line(7)
        k.mov_imm(1, 0)
        k.at_line(9)
        k.exit()
        function = k.build()
        assert [i.line for i in function.instructions] == [7, 9]
        assert function.line_table()[0].file == "a.cu"

    def test_loop_creates_back_edge(self):
        k = KernelBuilder("k")
        k.mov_imm(1, 0)
        k.isetp(0, 1, 1, "LT")
        with k.loop("main", predicate=p(0)):
            k.iadd(1, 1, imm(1))
            k.isetp(0, 1, 1, "LT")
        k.exit()
        function = k.build()
        branch = [i for i in function.instructions if i.opcode == "BRA"][0]
        assert branch.target is not None and branch.target < branch.offset

    def test_forward_label_resolution(self):
        k = KernelBuilder("k")
        k.bra("DONE")
        k.mov_imm(1, 0)
        k.label("DONE")
        k.exit()
        function = k.build()
        assert function.instructions[0].target == function.instructions[2].offset

    def test_unresolved_label_raises(self):
        k = KernelBuilder("k")
        k.bra("NOWHERE")
        with pytest.raises(ValueError):
            k.build()

    def test_duplicate_label_raises(self):
        k = KernelBuilder("k")
        k.label("A")
        with pytest.raises(ValueError):
            k.label("A")

    def test_inline_ranges_recorded(self):
        k = KernelBuilder("k")
        k.mov_imm(1, 0)
        with k.inlined("callee", call_site_line=5):
            k.fadd(2, 1, 1)
            k.fmul(3, 2, 2)
        k.exit()
        function = k.build()
        assert len(function.inline_ranges) == 1
        inline_range = function.inline_ranges[0]
        assert inline_range.callee == "callee"
        assert inline_range.contains(16) and inline_range.contains(32)
        assert not inline_range.contains(0)
        assert function.inline_stack_at(16) == ("callee",)

    def test_registers_per_thread_inferred(self):
        k = KernelBuilder("k")
        k.mov_imm(40, 0)
        k.exit()
        assert k.build().registers_per_thread == 41

    def test_device_function_visibility(self):
        builder = CubinBuilder()
        f = builder.device_function("helper")
        f.ret()
        assert f.build().visibility is FunctionVisibility.DEVICE


class TestAssignControlCodes:
    def test_variable_latency_producer_gets_write_barrier(self):
        program = parse_program("LDG.E.32 R0, [R2]\nIADD R3, R0, R1\nEXIT")
        annotated = assign_control_codes(program)
        load, use, _ = annotated
        assert load.control.write_barrier is not None
        assert load.control.write_barrier in use.control.wait_mask

    def test_store_gets_read_barrier_and_war_wait(self):
        program = parse_program("STG.E.32 [R2], R5\nMOV32I R5, 0\nEXIT")
        annotated = assign_control_codes(program)
        store, overwrite, _ = annotated
        assert store.control.read_barrier is not None
        assert store.control.read_barrier in overwrite.control.wait_mask

    def test_branch_waits_on_all_outstanding_barriers(self):
        """The Figure 3 pattern: BRA waits on the LDG's barrier without reading R0."""
        program = parse_program("LDG.E.32 R0, [R2]\nBRA 0x100\nEXIT")
        annotated = assign_control_codes(program)
        load, branch, _ = annotated
        assert load.control.write_barrier in branch.control.wait_mask

    def test_fixed_latency_dependence_sets_stall_cycles(self):
        program = parse_program("IADD R1, R2, R3\nIADD R4, R1, R1\nEXIT")
        annotated = assign_control_codes(program)
        assert annotated[0].control.stall_cycles >= 4

    def test_independent_fixed_latency_keeps_minimal_stall(self):
        program = parse_program("IADD R1, R2, R3\nIADD R4, R5, R6\nEXIT")
        annotated = assign_control_codes(program)
        assert annotated[0].control.stall_cycles == 1

    def test_barriers_recycled_across_many_loads(self):
        text = "\n".join(f"LDG.E.32 R{i}, [R20]" for i in range(10)) + "\nEXIT"
        annotated = assign_control_codes(parse_program(text))
        barriers = [i.control.write_barrier for i in annotated if i.opcode == "LDG"]
        assert all(barrier is not None and 0 <= barrier < 6 for barrier in barriers)
