"""Rendered instruction text parses back to the instruction.

``Instruction.render(with_control=True)`` and :func:`repro.sass.parse_instruction`
are inverses on every instruction of the registry's 52 setups.  Immediates
compare by value: the text form does not carry ``ImmediateOperand.is_double``.
"""

from repro.isa.registers import ImmediateOperand
from repro.sass import parse_instruction
from repro.workloads.registry import all_cases


def _operands(operands):
    return tuple(
        ("immediate", operand.value) if isinstance(operand, ImmediateOperand) else operand
        for operand in operands
    )


def _fields(instruction):
    return (
        instruction.opcode,
        instruction.modifiers,
        instruction.predicate,
        _operands(instruction.dests),
        _operands(instruction.sources),
        instruction.control,
        instruction.target,
    )


def test_every_registry_instruction_round_trips_through_text():
    instructions = [
        instruction
        for case in all_cases()
        for setup in (case.build_baseline(), case.build_optimized())
        for function in setup.cubin.functions.values()
        for instruction in function.instructions
    ]
    assert len(instructions) == 3939
    mismatches = sorted({
        instruction.render(with_control=True)
        for instruction in instructions
        if _fields(
            parse_instruction(
                instruction.render(with_control=True),
                offset=instruction.offset,
                line=instruction.line,
            )
        ) != _fields(instruction)
    })
    assert mismatches == []
