"""Tests for the fixed-width 128-bit encoder/decoder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.encoder import (
    EncodingError,
    INSTRUCTION_BYTES,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.isa.instruction import ControlCode, Instruction
from repro.isa.registers import ImmediateOperand, Predicate, RegisterOperand
from repro.sass import parse_instruction


SAMPLE_TEXTS = [
    "@P0 LDG.E.32 R0, [R2]",
    "IADD R8, R0, R7",
    "FFMA R5, R4, R4, R5",
    "ISETP.GE.AND P0, R3, R4",
    "STG.E.32 [R2+0x10], R5",
    "LDS.32 R6, [R16+0x8]",
    "LDC.32 R9, [R6]",
    "MOV32I R1, 0x20",
    "S2R R0, SR_TID.X",
    "BAR.SYNC",
    "BRA 0x100",
    "EXIT",
    "@!P3 MUFU.RCP R7, R8",
    "DMUL R10, R12, R14",
    "F2F.F64.F32 R20, R21",
]


@pytest.mark.parametrize("text", SAMPLE_TEXTS)
def test_roundtrip_preserves_semantics(text):
    original = parse_instruction(text, offset=0x40)
    encoded = encode_instruction(original)
    assert len(encoded) == INSTRUCTION_BYTES
    decoded = decode_instruction(encoded, offset=0x40)
    assert decoded.opcode == original.opcode
    assert decoded.modifiers == original.modifiers
    assert decoded.predicate == original.predicate
    assert decoded.defined_registers == original.defined_registers
    assert decoded.used_registers == original.used_registers
    assert decoded.target == original.target


def test_roundtrip_preserves_control_code():
    instruction = parse_instruction("LDG.E.32 R0, [R2]").with_control(
        ControlCode(stall_cycles=2, write_barrier=3, wait_mask=frozenset({0, 5}))
    )
    decoded = decode_instruction(encode_instruction(instruction))
    assert decoded.control == instruction.control


def test_roundtrip_preserves_line_number():
    instruction = parse_instruction("IADD R1, R1, R2", line=42)
    assert decode_instruction(encode_instruction(instruction)).line == 42


def test_float_immediate_roundtrip():
    instruction = Instruction(
        offset=0,
        opcode="FMUL",
        dests=(RegisterOperand(3),),
        sources=(RegisterOperand(4), ImmediateOperand(2.5)),
    )
    decoded = decode_instruction(encode_instruction(instruction))
    value = [s for s in decoded.sources if isinstance(s, ImmediateOperand)][0]
    assert value.value == pytest.approx(2.5)


def test_program_roundtrip(toy_cubin):
    function = toy_cubin.function("toy_kernel")
    data = encode_program(function.instructions)
    assert len(data) == INSTRUCTION_BYTES * len(function.instructions)
    decoded = decode_program(data)
    assert [i.opcode for i in decoded] == [i.opcode for i in function.instructions]
    assert [i.offset for i in decoded] == [i.offset for i in function.instructions]


def test_too_many_modifiers_rejected():
    instruction = Instruction(offset=0, opcode="LDG", modifiers=("E", "32", "CG"),
                              dests=(RegisterOperand(0),))
    with pytest.raises(EncodingError):
        encode_instruction(instruction)


def test_unknown_modifier_rejected():
    instruction = Instruction(offset=0, opcode="LDG", modifiers=("NOPE",),
                              dests=(RegisterOperand(0),))
    with pytest.raises(EncodingError):
        encode_instruction(instruction)


def test_bad_length_rejected():
    with pytest.raises(EncodingError):
        decode_instruction(b"\x00" * 8)


@settings(max_examples=200, deadline=None)
@given(
    opcode=st.sampled_from(["IADD", "FADD", "FMUL", "FFMA", "MOV", "SHL", "LOP3"]),
    dest=st.integers(min_value=0, max_value=254),
    sources=st.lists(st.integers(min_value=0, max_value=254), min_size=1, max_size=3),
    predicate_index=st.integers(min_value=0, max_value=7),
    negated=st.booleans(),
    stall=st.integers(min_value=0, max_value=15),
)
def test_roundtrip_property(opcode, dest, sources, predicate_index, negated, stall):
    """Any encodable ALU instruction decodes back to the same def/use sets."""
    instruction = Instruction(
        offset=0,
        opcode=opcode,
        predicate=Predicate(predicate_index, negated=negated and predicate_index != 7),
        dests=(RegisterOperand(dest),),
        sources=tuple(RegisterOperand(index) for index in sources),
        control=ControlCode(stall_cycles=stall),
    )
    decoded = decode_instruction(encode_instruction(instruction))
    assert decoded.opcode == instruction.opcode
    assert decoded.defined_registers == instruction.defined_registers
    assert decoded.used_registers == instruction.used_registers
    assert decoded.control.stall_cycles == stall
