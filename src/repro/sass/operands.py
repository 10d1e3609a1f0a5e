"""Operand grammar for real SASS disassembly.

Real ``nvdisasm`` / ``cuobjdump -sass`` operand text is richer than the
text :meth:`~repro.isa.instruction.Instruction.render` writes:
negation/absolute-value decorations (``-R4``, ``|R4|``, ``~R2``), register
reuse hints (``R4.reuse``), width/type suffixes on registers inside
addresses (``[R2.64+0x10]``), constant-bank reads (``c[0x0][0x160]``),
uniform datapath registers (``UR4``, ``UPT``), descriptor-based addressing
(``desc[UR4][R2.64]``) and hex-encoded float literals (``0f3F800000``).

``parse_operand`` lowers each token into the operand model of
:mod:`repro.isa.registers`; decorations that do not change *which* registers
are read (negation, absolute value, reuse hints, type suffixes) are
stripped, because the static analyses only consume def/use sets.  Tokens
outside the grammar raise :class:`OperandError`; the decoder then falls back
to :func:`extract_registers`, which recovers the register *uses* mentioned
anywhere in the token so liveness stays sound.
"""

from __future__ import annotations

import re
import struct
from typing import Optional, Tuple

from repro.isa.registers import (
    ConstantOperand,
    ImmediateOperand,
    MemoryOperand,
    MemorySpace,
    Predicate,
    RegisterOperand,
    SpecialRegister,
    TRUE_PREDICATE_INDEX,
    UniformPredicate,
    UniformRegister,
    ZERO_REGISTER_INDEX,
    UNIFORM_ZERO_REGISTER_INDEX,
)


class OperandError(ValueError):
    """A token that the real-SASS operand grammar does not cover."""

    def __init__(self, message: str, token: str) -> None:
        super().__init__(message)
        self.token = token


_REGISTER_RE = re.compile(r"^(?:RZ|R\d+)$")
_UNIFORM_RE = re.compile(r"^(?:URZ|UR\d+)$")
_PREDICATE_RE = re.compile(r"^!?(?:PT|P\d)$")
_UNIFORM_PREDICATE_RE = re.compile(r"^!?(?:UPT|UP\d)$")
_CONSTANT_RE = re.compile(
    r"^c\[(?P<bank>0x[0-9a-fA-F]+|\d+)\]\s*"
    r"\[(?P<offset>-?(?:0x[0-9a-fA-F]+|\d+))\]$"
)
_HEX_FLOAT_RE = re.compile(r"^0[fF](?P<bits>[0-9a-fA-F]{8})$")
_HEX_DOUBLE_RE = re.compile(r"^0[dD](?P<bits>[0-9a-fA-F]{16})$")
_INT_RE = re.compile(r"^[-+]?(?:0x[0-9a-fA-F]+|\d+)$")
_FLOAT_RE = re.compile(r"^[-+]?\d+\.\d*(?:[eE][-+]?\d+)?$")
_DESC_RE = re.compile(r"^desc\[(?P<uniform>URZ|UR\d+)\]\s*(?P<inner>\[.*\])$")
_REGISTER_ANYWHERE_RE = re.compile(r"\bR(\d+)\b")

#: Suffixes nvdisasm attaches to register references inside operands; they
#: describe width/lane selection, not additional registers (wide access
#: expansion happens on the instruction's modifiers instead).
_REGISTER_SUFFIXES = (
    "64", "U32", "S32", "H0", "H1", "H0_H0", "H1_H1", "F32", "F64",
    "X4", "X8", "X16", "ROW", "COL", "reuse",
)


def _parse_int(text: str) -> int:
    text = text.strip()
    negative = text.startswith("-")
    if text.startswith(("+", "-")):
        text = text[1:]
    value = int(text, 16) if text.lower().startswith("0x") else int(text)
    return -value if negative else value


def _strip_decorations(token: str) -> str:
    """Remove negation / absolute-value / bit-not decorations."""
    token = token.strip()
    while token and token[0] in "-~+":
        token = token[1:].strip()
    if len(token) >= 2 and token[0] == "|" and token[-1] == "|":
        token = token[1:-1].strip()
    return token


def _strip_register_suffixes(token: str) -> str:
    """Remove trailing ``.64`` / ``.reuse`` style suffixes from a register."""
    changed = True
    while changed:
        changed = False
        for suffix in _REGISTER_SUFFIXES:
            if token.endswith("." + suffix):
                token = token[: -len(suffix) - 1]
                changed = True
    return token


def parse_register(token: str) -> RegisterOperand:
    token = _strip_register_suffixes(_strip_decorations(token))
    if token == "RZ":
        return RegisterOperand(ZERO_REGISTER_INDEX)
    if _REGISTER_RE.match(token):
        index = int(token[1:])
        if index > ZERO_REGISTER_INDEX:
            raise OperandError(f"register index out of range: {token!r}", token)
        return RegisterOperand(index)
    raise OperandError(f"not a register: {token!r}", token)


def parse_uniform_register(token: str) -> UniformRegister:
    token = _strip_register_suffixes(_strip_decorations(token))
    if token == "URZ":
        return UniformRegister(UNIFORM_ZERO_REGISTER_INDEX)
    if _UNIFORM_RE.match(token):
        index = int(token[2:])
        if index > UNIFORM_ZERO_REGISTER_INDEX:
            raise OperandError(f"uniform register index out of range: {token!r}", token)
        return UniformRegister(index)
    raise OperandError(f"not a uniform register: {token!r}", token)


def parse_predicate(token: str) -> Predicate:
    token = token.strip()
    negated = token.startswith("!")
    if negated:
        token = token[1:]
    if token == "PT":
        return Predicate(TRUE_PREDICATE_INDEX, negated=negated)
    if re.fullmatch(r"P\d", token):
        return Predicate(int(token[1]), negated=negated)
    raise OperandError(f"not a predicate: {token!r}", token)


def parse_uniform_predicate(token: str) -> UniformPredicate:
    token = token.strip()
    negated = token.startswith("!")
    if negated:
        token = token[1:]
    if token == "UPT":
        return UniformPredicate(TRUE_PREDICATE_INDEX, negated=negated)
    if re.fullmatch(r"UP\d", token):
        return UniformPredicate(int(token[2]), negated=negated)
    raise OperandError(f"not a uniform predicate: {token!r}", token)


def _parse_memory_inner(inner: str, space: MemorySpace) -> MemoryOperand:
    """Parse the ``...`` of ``[...]``: register/uniform/immediate terms
    joined by ``+``."""
    base: Optional[RegisterOperand] = None
    uniform: Optional[UniformRegister] = None
    offset = 0
    if not inner.strip():
        raise OperandError("empty memory operand", inner)
    for term in inner.split("+"):
        term = term.strip()
        if not term:
            continue
        stripped = _strip_register_suffixes(_strip_decorations(term))
        if _REGISTER_RE.match(stripped):
            if base is not None:
                raise OperandError(f"two register bases in [{inner}]", term)
            base = parse_register(term)
        elif _UNIFORM_RE.match(stripped):
            if uniform is not None:
                raise OperandError(f"two uniform bases in [{inner}]", term)
            uniform = parse_uniform_register(term)
        elif _INT_RE.match(term) or term.startswith("-"):
            offset += _parse_int(term)
        else:
            raise OperandError(f"cannot parse address term {term!r}", term)
    if base is None:
        base = RegisterOperand(ZERO_REGISTER_INDEX)
    return MemoryOperand(base=base, offset=offset, space=space, uniform_base=uniform)


def parse_memory(token: str, space: MemorySpace) -> MemoryOperand:
    token = token.strip()
    desc_match = _DESC_RE.match(token)
    if desc_match:
        # The descriptor register configures the access; treat it like a
        # uniform address term so its (warp-invariant) use is preserved.
        inner = _parse_memory_inner(desc_match.group("inner")[1:-1], space)
        if inner.uniform_base is None:
            inner = MemoryOperand(
                base=inner.base,
                offset=inner.offset,
                space=inner.space,
                uniform_base=parse_uniform_register(desc_match.group("uniform")),
            )
        return inner
    if token.startswith("[") and token.endswith("]"):
        return _parse_memory_inner(token[1:-1], space)
    raise OperandError(f"not a memory operand: {token!r}", token)


def parse_immediate(token: str) -> ImmediateOperand:
    token = token.strip()
    upper = token.upper().lstrip("+-")
    if upper in ("INF", "+INF"):
        return ImmediateOperand(float("-inf") if token.startswith("-") else float("inf"))
    if upper in ("QNAN", "NAN", "SNAN"):
        return ImmediateOperand(float("nan"))
    # Hex bit patterns may carry a sign decoration (`FADD R0, R1, -0f3F800000`).
    sign = -1.0 if token.startswith("-") else 1.0
    unsigned = token.lstrip("+-")
    hex_float = _HEX_FLOAT_RE.match(unsigned)
    if hex_float:
        value = struct.unpack(">f", bytes.fromhex(hex_float.group("bits")))[0]
        return ImmediateOperand(sign * float(value))
    hex_double = _HEX_DOUBLE_RE.match(unsigned)
    if hex_double:
        value = struct.unpack(">d", bytes.fromhex(hex_double.group("bits")))[0]
        return ImmediateOperand(sign * float(value), is_double=True)
    if _INT_RE.match(token):
        return ImmediateOperand(float(_parse_int(token)))
    if _FLOAT_RE.match(token):
        return ImmediateOperand(float(token), is_double=True)
    raise OperandError(f"not an immediate: {token!r}", token)


def parse_operand(token: str, space: MemorySpace = MemorySpace.GLOBAL) -> object:
    """Parse one real-SASS operand token into the ISA operand model.

    ``space`` is the address space implied by the opcode, applied to memory
    operands.  Raises :class:`OperandError` for tokens outside the grammar.
    """
    token = token.strip()
    if not token:
        raise OperandError("empty operand", token)
    bare = _strip_decorations(token)
    if bare.startswith(("[", "desc[")):
        return parse_memory(bare, space)
    constant = _CONSTANT_RE.match(_strip_register_suffixes(bare))
    if constant:
        return ConstantOperand(
            bank=_parse_int(constant.group("bank")),
            offset=_parse_int(constant.group("offset")),
        )
    stripped = _strip_register_suffixes(bare)
    if _REGISTER_RE.match(stripped):
        return parse_register(bare)
    if _UNIFORM_RE.match(stripped):
        return parse_uniform_register(bare)
    if _PREDICATE_RE.match(token.strip()):
        return parse_predicate(token)
    if _UNIFORM_PREDICATE_RE.match(token.strip()):
        return parse_uniform_predicate(token)
    if bare.startswith("SR_"):
        return SpecialRegister(bare)
    try:
        return parse_immediate(token)
    except OperandError:
        pass
    raise OperandError(f"cannot parse operand: {token!r}", token)


def extract_registers(text: str) -> Tuple[RegisterOperand, ...]:
    """Best-effort recovery of every ``R<n>`` mentioned in ``text``.

    The fallback for operand tokens outside the grammar: the registers a
    token *names* are treated as uses, so a failed parse can hide an
    operand's meaning but never a register the liveness analysis must see.
    """
    registers = []
    for match in _REGISTER_ANYWHERE_RE.finditer(text):
        index = int(match.group(1))
        if 0 <= index <= ZERO_REGISTER_INDEX:
            registers.append(RegisterOperand(index))
    return tuple(registers)
