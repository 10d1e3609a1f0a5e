"""Tests for the assembly text parser."""

import pytest

from repro.isa.registers import (
    ImmediateOperand,
    MemoryOperand,
    MemorySpace,
    Predicate,
    RegisterOperand,
)
from repro.sass import ParseError, parse_instruction, parse_program


class TestParseInstruction:
    def test_table1_instruction(self):
        """Parse the paper's Table 1 example: '@P0 LDG.32 R0, [R2]'."""
        instruction = parse_instruction("@P0 LDG.32 R0, [R2]")
        assert instruction.opcode == "LDG"
        assert instruction.modifiers == ("32",)
        assert instruction.predicate == Predicate(0)
        assert instruction.dests == (RegisterOperand(0),)
        memory = instruction.sources[0]
        assert isinstance(memory, MemoryOperand)
        assert memory.base == RegisterOperand(2)
        assert memory.space is MemorySpace.GLOBAL

    def test_negated_predicate(self):
        instruction = parse_instruction("@!P0 LDC R0, [R4]")
        assert instruction.predicate == Predicate(0, negated=True)
        assert instruction.sources[0].space is MemorySpace.CONSTANT

    def test_three_operand_arithmetic(self):
        instruction = parse_instruction("IADD R8, R0, R7")
        assert instruction.dests == (RegisterOperand(8),)
        assert instruction.sources == (RegisterOperand(0), RegisterOperand(7))

    def test_predicate_destination(self):
        instruction = parse_instruction("ISETP.GE.AND P0, R3, R4")
        assert instruction.dests == (Predicate(0),)
        assert instruction.sources == (RegisterOperand(3), RegisterOperand(4))

    def test_store_memory_destination(self):
        instruction = parse_instruction("STG.E.32 [R2+0x10], R5")
        memory = instruction.dests[0]
        assert isinstance(memory, MemoryOperand)
        assert memory.offset == 0x10
        assert instruction.sources == (RegisterOperand(5),)

    def test_branch_target(self):
        instruction = parse_instruction("BRA 0x100")
        assert instruction.target == 0x100

    def test_branch_label_resolution(self):
        instruction = parse_instruction("BRA LOOP", labels={"LOOP": 0x40})
        assert instruction.target == 0x40

    def test_unresolved_label_raises(self):
        with pytest.raises(ParseError):
            parse_instruction("BRA NOWHERE")

    def test_immediate_operand(self):
        instruction = parse_instruction("MOV32I R1, 0x20")
        assert isinstance(instruction.sources[0], ImmediateOperand)
        assert instruction.sources[0].value == 0x20

    def test_special_register(self):
        instruction = parse_instruction("S2R R0, SR_TID.X")
        assert str(instruction.sources[0]) == "SR_TID.X"

    def test_control_code_roundtrip(self):
        text = "@P0 LDG.E.32 R0, [R2] [B13:W0:R-:S1:Y]"
        instruction = parse_instruction(text)
        assert instruction.control.write_barrier == 0
        assert instruction.control.wait_mask == frozenset({1, 3})
        # render(with_control=True) parses back to the same fields.
        reparsed = parse_instruction(instruction.render(with_control=True))
        assert reparsed.control == instruction.control
        assert reparsed.opcode == instruction.opcode

    def test_offset_prefix(self):
        instruction = parse_instruction("/*0040*/ IADD R1, R1, R2")
        assert instruction.offset == 0x40

    def test_unknown_opcode_raises(self):
        with pytest.raises(ParseError):
            parse_instruction("BOGUS R1, R2")

    def test_empty_text_raises(self):
        with pytest.raises(ParseError):
            parse_instruction("   ")


class TestParseProgram:
    def test_labels_and_offsets(self):
        program = parse_program(
            """
            # prologue
            MOV32I R1, 0
            LOOP:
            IADD R1, R1, R2
            ISETP.LT.AND P0, R1, R3
            @P0 BRA LOOP
            EXIT
            """
        )
        assert [instruction.opcode for instruction in program] == [
            "MOV32I", "IADD", "ISETP", "BRA", "EXIT",
        ]
        assert program[3].target == program[1].offset
        assert [instruction.offset for instruction in program] == [0, 16, 32, 48, 64]

    def test_comments_and_blank_lines_ignored(self):
        program = parse_program("// header\n\nMOV R1, R2  \n# trailing\n")
        assert len(program) == 1

    def test_duplicate_free_instruction_stream(self):
        program = parse_program("MOV R1, R2\nMOV R2, R3")
        assert program[0].offset != program[1].offset


class TestParseErrorContext:
    """ParseError carries file/line/column/token context (schema of the
    rendered message: ``name:line:column: message``)."""

    def test_program_error_names_source_line_and_token(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("MOV R0, RZ\nBOGUS R1, R2\n", source_name="k.asm")
        error = excinfo.value
        assert error.source_name == "k.asm"
        assert error.line == 2
        assert error.token == "BOGUS"
        assert str(error).startswith("k.asm:2:")
        assert "unknown opcode" in str(error)

    def test_operand_error_carries_the_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_instruction("MOV R0, ???")
        error = excinfo.value
        assert error.token == "???"
        assert error.column == len("MOV R0, ") + 1  # 1-based

    def test_bare_message_survives_context_wrapping(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("WATNOW R1", source_name="x.asm")
        error = excinfo.value
        assert "WATNOW" in error.bare_message
        assert not error.bare_message.startswith("x.asm")

    def test_parse_error_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)
