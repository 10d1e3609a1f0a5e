"""Fixed-width 128-bit instruction encoding.

Volta and later NVIDIA architectures encode each instruction in a single
128-bit word (Section 2.2 of the paper).  This module packs and unpacks our
SASS-like instructions into 16-byte words so the CUBIN container holds real
code sections, which :func:`decode_program` reads back.

The fields are written sequentially from the least significant bit; operand
payloads and the immediate/target value are only present when used, which is
how everything fits in 128 bits (real encoders resolve the same pressure by
sharing fields between instruction formats):

====================  =========  ==============================================
field                 bits       contents
====================  =========  ==============================================
opcode id             7          index into the sorted opcode catalog
modifier ids          2 x 6      index+1 into the modifier table (0 = absent)
guard predicate       3 + 1      predicate index and negate bit
destination count     2          how many leading operands are destinations
operand kinds         4 x 3      none/register/predicate/!predicate/memory/
                                 special/immediate
operand payloads      8 each     only for kinds that carry a register index
memory offset / 4     4          byte offset of the (single) memory operand
memory space          3          global/local/shared/constant/texture/generic
value kind            2          none / branch target / integer / float
value                 16/24/32   target (16), signed integer (24), float32 (32)
control code          16         stall(4) wbar(3) rbar(3) wait mask(6)
line number           10         source line (0 = absent, clamped at 1023)
====================  =========  ==============================================

Instructions that exceed the format (more than two modifiers, more than four
operands, an immediate too wide for its field) raise :class:`EncodingError`.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.isa.instruction import INSTRUCTION_SIZE, ControlCode, Instruction
from repro.isa.opcodes import OPCODES
from repro.isa.registers import (
    ALWAYS,
    ImmediateOperand,
    MemoryOperand,
    MemorySpace,
    Predicate,
    RegisterOperand,
    SpecialRegister,
    TRUE_PREDICATE_INDEX,
)

#: Bytes per encoded instruction.
INSTRUCTION_BYTES = INSTRUCTION_SIZE


class EncodingError(ValueError):
    """Raised when an instruction does not fit the fixed-width encoding."""


_OPCODE_NAMES: Tuple[str, ...] = tuple(sorted(OPCODES))
_OPCODE_IDS = {name: index for index, name in enumerate(_OPCODE_NAMES)}

#: Modifier string table.  Extend as new modifiers are used by workloads.
MODIFIERS: Tuple[str, ...] = (
    "E", "32", "64", "128", "U8", "S8", "U16", "S16", "U32", "S32",
    "WIDE", "HI", "LO", "X", "GE", "GT", "LE", "LT", "EQ", "NE",
    "AND", "OR", "XOR", "RCP", "RSQ", "SQRT", "SIN", "COS", "EX2", "LG2",
    "SYNC", "ARV", "RED", "F32", "F64", "F16", "FTZ", "RN", "RZ2", "TRUNC",
    "SAT", "CTA", "GPU", "SYS", "STRONG", "CG", "CI", "NODEP", "PASS", "RCP64H",
)
_MODIFIER_IDS = {name: index for index, name in enumerate(MODIFIERS)}

_SPECIAL_REGISTERS: Tuple[str, ...] = (
    "SR_TID.X", "SR_TID.Y", "SR_TID.Z",
    "SR_CTAID.X", "SR_CTAID.Y", "SR_CTAID.Z",
    "SR_LANEID", "SR_WARPID", "SR_NWARPID", "SR_SMID", "SR_GRIDID",
    "SR_CLOCKLO", "SR_CLOCKHI", "SR_EQMASK", "SR_LTMASK",
)
_SPECIAL_IDS = {name: index for index, name in enumerate(_SPECIAL_REGISTERS)}

_MEMORY_SPACES: Tuple[MemorySpace, ...] = (
    MemorySpace.GLOBAL,
    MemorySpace.LOCAL,
    MemorySpace.SHARED,
    MemorySpace.CONSTANT,
    MemorySpace.TEXTURE,
    MemorySpace.GENERIC,
)
_SPACE_IDS = {space: index for index, space in enumerate(_MEMORY_SPACES)}

# Operand kind tags.
_KIND_NONE = 0
_KIND_REGISTER = 1
_KIND_PREDICATE = 2
_KIND_PREDICATE_NEG = 3
_KIND_MEMORY = 4
_KIND_SPECIAL = 5
_KIND_IMMEDIATE = 6

_KINDS_WITH_PAYLOAD = (_KIND_REGISTER, _KIND_PREDICATE, _KIND_PREDICATE_NEG,
                       _KIND_MEMORY, _KIND_SPECIAL)

# Value kinds.
_VALUE_NONE = 0
_VALUE_TARGET = 1
_VALUE_INT = 2
_VALUE_FLOAT = 3

_INT_VALUE_BITS = 24
_TARGET_VALUE_BITS = 16


class _BitWriter:
    def __init__(self) -> None:
        self.word = 0
        self.position = 0

    def put(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise EncodingError(f"field value {value} does not fit in {width} bits")
        self.word |= value << self.position
        self.position += width
        if self.position > 128:
            raise EncodingError(
                f"instruction does not fit the 128-bit encoding ({self.position} bits)"
            )

    def bytes(self) -> bytes:
        return self.word.to_bytes(INSTRUCTION_BYTES, "little")


class _BitReader:
    def __init__(self, data: bytes) -> None:
        self.word = int.from_bytes(data, "little")
        self.position = 0

    def take(self, width: int) -> int:
        value = (self.word >> self.position) & ((1 << width) - 1)
        self.position += width
        return value


def _operand_kind(operand: object) -> Tuple[int, int]:
    """Return (kind, payload) for one operand; payload is 0 when unused."""
    if isinstance(operand, RegisterOperand):
        return _KIND_REGISTER, operand.index
    if isinstance(operand, Predicate):
        return (_KIND_PREDICATE_NEG if operand.negated else _KIND_PREDICATE), operand.index
    if isinstance(operand, MemoryOperand):
        return _KIND_MEMORY, operand.base.index
    if isinstance(operand, SpecialRegister):
        if operand.name not in _SPECIAL_IDS:
            raise EncodingError(f"unknown special register {operand.name!r}")
        return _KIND_SPECIAL, _SPECIAL_IDS[operand.name]
    if isinstance(operand, ImmediateOperand):
        return _KIND_IMMEDIATE, 0
    raise EncodingError(f"cannot encode operand {operand!r}")


def encode_instruction(instruction: Instruction) -> bytes:
    """Encode an instruction into its 16-byte (128-bit) representation."""
    try:
        opcode_id = _OPCODE_IDS[instruction.opcode]
    except KeyError as exc:
        raise EncodingError(f"unknown opcode {instruction.opcode!r}") from exc
    if opcode_id >= 128:
        raise EncodingError("opcode catalog exceeds the 7-bit opcode field")

    if len(instruction.modifiers) > 2:
        raise EncodingError(
            f"at most 2 modifiers fit the encoding, got {instruction.modifiers!r}"
        )
    modifier_ids = []
    for modifier in instruction.modifiers:
        if modifier not in _MODIFIER_IDS:
            raise EncodingError(f"unknown modifier {modifier!r}")
        modifier_ids.append(_MODIFIER_IDS[modifier] + 1)
    while len(modifier_ids) < 2:
        modifier_ids.append(0)

    operands = list(instruction.dests) + list(instruction.sources)
    if len(operands) > 4:
        raise EncodingError(f"at most 4 operands are encodable, got {len(operands)}")
    if len(instruction.dests) > 3:
        raise EncodingError("at most 3 destinations are encodable")

    memory: Optional[MemoryOperand] = None
    immediate: Optional[ImmediateOperand] = None
    kinds: List[Tuple[int, int]] = []
    for operand in operands:
        kind, payload = _operand_kind(operand)
        if kind == _KIND_MEMORY:
            if memory is not None:
                raise EncodingError("at most one memory operand is encodable")
            memory = operand
        if kind == _KIND_IMMEDIATE:
            if immediate is not None:
                raise EncodingError("at most one immediate operand is encodable")
            immediate = operand
        kinds.append((kind, payload))
    while len(kinds) < 4:
        kinds.append((_KIND_NONE, 0))

    if instruction.target is not None and immediate is not None:
        raise EncodingError("branch target and immediate cannot both be encoded")

    memory_offset = memory.offset if memory is not None else 0
    if memory_offset % 4 != 0 or not 0 <= memory_offset < 64:
        raise EncodingError(
            f"memory offset {memory_offset} not encodable (must be 4-aligned, < 64)"
        )
    space_id = _SPACE_IDS[memory.space] if memory is not None else 0

    value_kind = _VALUE_NONE
    value_bits = 0
    value_width = 0
    if instruction.target is not None:
        value_kind = _VALUE_TARGET
        value_width = _TARGET_VALUE_BITS
        if not 0 <= instruction.target < (1 << value_width):
            raise EncodingError(f"branch target {instruction.target:#x} out of range")
        value_bits = instruction.target
    elif immediate is not None:
        as_float = immediate.is_double or not float(immediate.value).is_integer()
        if as_float:
            value_kind = _VALUE_FLOAT
            value_width = 32
            value_bits = struct.unpack("<I", struct.pack("<f", float(immediate.value)))[0]
        else:
            value_kind = _VALUE_INT
            value_width = _INT_VALUE_BITS
            integer = int(immediate.value)
            if not -(1 << (value_width - 1)) <= integer < (1 << (value_width - 1)):
                raise EncodingError(f"integer immediate {integer} out of range")
            value_bits = integer & ((1 << value_width) - 1)

    control = instruction.control
    wait_bits = 0
    for index in control.wait_mask:
        wait_bits |= 1 << index
    control_bits = (
        control.stall_cycles
        | (((control.write_barrier + 1) if control.write_barrier is not None else 0) << 4)
        | (((control.read_barrier + 1) if control.read_barrier is not None else 0) << 7)
        | (wait_bits << 10)
    )

    writer = _BitWriter()
    writer.put(opcode_id, 7)
    writer.put(modifier_ids[0], 6)
    writer.put(modifier_ids[1], 6)
    writer.put(instruction.predicate.index, 3)
    writer.put(int(instruction.predicate.negated), 1)
    writer.put(len(instruction.dests), 2)
    for kind, _payload in kinds:
        writer.put(kind, 3)
    for kind, payload in kinds:
        if kind in _KINDS_WITH_PAYLOAD:
            writer.put(payload, 8)
    writer.put(memory_offset // 4, 4)
    writer.put(space_id, 3)
    writer.put(value_kind, 2)
    if value_width:
        writer.put(value_bits, value_width)
    writer.put(control_bits, 16)
    line = instruction.line if instruction.line is not None else 0
    writer.put(min(line, 1023), 10)
    return writer.bytes()


def decode_instruction(data: bytes, offset: int = 0) -> Instruction:
    """Decode a 16-byte word back into an :class:`Instruction`."""
    if len(data) != INSTRUCTION_BYTES:
        raise EncodingError(f"expected {INSTRUCTION_BYTES} bytes, got {len(data)}")
    reader = _BitReader(data)

    opcode_id = reader.take(7)
    modifier_ids = [reader.take(6), reader.take(6)]
    predicate_index = reader.take(3)
    predicate_negated = bool(reader.take(1))
    num_dests = reader.take(2)
    kinds = [reader.take(3) for _ in range(4)]
    payloads = {}
    for slot, kind in enumerate(kinds):
        if kind in _KINDS_WITH_PAYLOAD:
            payloads[slot] = reader.take(8)
    memory_offset = reader.take(4) * 4
    space_id = reader.take(3)
    value_kind = reader.take(2)
    target: Optional[int] = None
    immediate: Optional[ImmediateOperand] = None
    if value_kind == _VALUE_TARGET:
        target = reader.take(_TARGET_VALUE_BITS)
    elif value_kind == _VALUE_INT:
        raw = reader.take(_INT_VALUE_BITS)
        if raw >= (1 << (_INT_VALUE_BITS - 1)):
            raw -= 1 << _INT_VALUE_BITS
        immediate = ImmediateOperand(float(raw))
    elif value_kind == _VALUE_FLOAT:
        raw = reader.take(32)
        value = struct.unpack("<f", struct.pack("<I", raw))[0]
        # Only a double is float-coded when integral, so the bytes re-encode.
        immediate = ImmediateOperand(value, is_double=value.is_integer())
    control_bits = reader.take(16)
    line = reader.take(10)

    opcode = _OPCODE_NAMES[opcode_id]
    modifiers = tuple(MODIFIERS[mid - 1] for mid in modifier_ids if mid != 0)
    memory_space = _MEMORY_SPACES[space_id]

    operands: List[object] = []
    for slot, kind in enumerate(kinds):
        if kind == _KIND_NONE:
            continue
        if kind == _KIND_REGISTER:
            operands.append(RegisterOperand(payloads[slot]))
        elif kind == _KIND_PREDICATE:
            operands.append(Predicate(payloads[slot], negated=False))
        elif kind == _KIND_PREDICATE_NEG:
            operands.append(Predicate(payloads[slot], negated=True))
        elif kind == _KIND_MEMORY:
            operands.append(
                MemoryOperand(RegisterOperand(payloads[slot]), offset=memory_offset,
                              space=memory_space)
            )
        elif kind == _KIND_SPECIAL:
            operands.append(SpecialRegister(_SPECIAL_REGISTERS[payloads[slot]]))
        elif kind == _KIND_IMMEDIATE:
            operands.append(immediate if immediate is not None else ImmediateOperand(0.0))

    dests = tuple(operands[:num_dests])
    sources = tuple(operands[num_dests:])

    stall = control_bits & 0xF
    wbar_raw = (control_bits >> 4) & 0x7
    rbar_raw = (control_bits >> 7) & 0x7
    wait_bits = (control_bits >> 10) & 0x3F
    control = ControlCode(
        stall_cycles=stall,
        yield_flag=True,
        write_barrier=(wbar_raw - 1) if wbar_raw else None,
        read_barrier=(rbar_raw - 1) if rbar_raw else None,
        wait_mask=frozenset(i for i in range(6) if wait_bits & (1 << i)),
    )

    predicate = Predicate(predicate_index, negated=predicate_negated)
    if predicate_index == TRUE_PREDICATE_INDEX and not predicate_negated:
        predicate = ALWAYS

    return Instruction(
        offset=offset,
        opcode=opcode,
        modifiers=modifiers,
        predicate=predicate,
        dests=dests,
        sources=sources,
        control=control,
        target=target,
        line=line if line else None,
    )


def encode_program(instructions: Sequence[Instruction]) -> bytes:
    """Encode a sequence of instructions into a contiguous code section."""
    return b"".join(encode_instruction(instruction) for instruction in instructions)


def decode_program(data: bytes, base_offset: int = 0) -> List[Instruction]:
    """Decode a contiguous code section back into instructions."""
    if len(data) % INSTRUCTION_BYTES != 0:
        raise EncodingError("code section size is not a multiple of the instruction width")
    instructions = []
    for index in range(len(data) // INSTRUCTION_BYTES):
        chunk = data[index * INSTRUCTION_BYTES: (index + 1) * INSTRUCTION_BYTES]
        instructions.append(
            decode_instruction(chunk, offset=base_offset + index * INSTRUCTION_BYTES)
        )
    return instructions
