"""SASS-like instruction set model for a Volta-class GPU.

This package models the pieces of NVIDIA's machine ISA that GPA's analyses
depend on (Table 1 of the paper):

* regular registers ``R0``-``R254`` plus the zero register ``RZ``,
* predicate registers ``P0``-``P6`` with true/false conditions and ``PT``,
* the six *virtual barrier registers* ``B0``-``B5`` encoded in every
  instruction's control code (wait mask, write barrier, read barrier),
* opcodes with modifiers, operand lists, latency classes and memory spaces,
* a fixed-width 128-bit instruction encoding (Volta and later use one
  128-bit word per instruction).

The model is intentionally *not* a full SASS ISA: it carries exactly the
information GPA's instruction blamer, optimizers and estimators consume, so
that backward slicing, dependency-graph pruning and stall attribution run on
the same inputs they would see on real hardware.
"""

from repro.isa.registers import (
    BarrierRegister,
    ConstantOperand,
    ImmediateOperand,
    MemoryOperand,
    MemorySpace,
    Predicate,
    RegisterOperand,
    SpecialRegister,
    UniformPredicate,
    UniformRegister,
    ZERO_REGISTER_INDEX,
)
from repro.isa.opcodes import (
    InstructionClass,
    LatencyClass,
    OpcodeInfo,
    OPCODES,
    UNKNOWN_OPCODE_INFO,
    lookup_opcode,
    lookup_opcode_tolerant,
    opcode_is_known,
)
from repro.isa.instruction import ControlCode, Instruction
from repro.isa.encoder import decode_instruction, encode_instruction, INSTRUCTION_BYTES

__all__ = [
    "BarrierRegister",
    "ConstantOperand",
    "ControlCode",
    "ImmediateOperand",
    "Instruction",
    "InstructionClass",
    "INSTRUCTION_BYTES",
    "LatencyClass",
    "MemoryOperand",
    "MemorySpace",
    "OpcodeInfo",
    "OPCODES",
    "Predicate",
    "RegisterOperand",
    "SpecialRegister",
    "UNKNOWN_OPCODE_INFO",
    "UniformPredicate",
    "UniformRegister",
    "ZERO_REGISTER_INDEX",
    "decode_instruction",
    "encode_instruction",
    "lookup_opcode",
    "lookup_opcode_tolerant",
    "opcode_is_known",
]
