"""Single-line decoder for real SASS disassembly.

One line of ``nvdisasm`` / ``cuobjdump -sass`` output carries more than the
in-repo assembly syntax: an offset comment, the instruction text, the raw
128-bit encoding as a trailing hex comment, and sometimes a scheduling
control bracket.  ``decode_instruction`` consumes the *instruction text*
(after :func:`strip_line` removes the surrounding noise) and produces a
:class:`DecodedInstruction` — the lowered :class:`~repro.isa.instruction.Instruction`
plus the degradation ledger the ingest report aggregates.

Degradation rules (the frontend's "never crash" contract):

* an opcode absent from the catalog decodes to a conservative unknown op:
  its first register operand is treated as both a may-def and a use, every
  other parsed register/memory operand as a use;
* an operand token outside the grammar of :mod:`repro.sass.operands` falls
  back to :func:`~repro.sass.operands.extract_registers` — the registers the
  token names become uses, so liveness never loses a declared register;
* a symbolic branch target is reported for the frontend to resolve against
  the listing's labels; unresolved targets stay ``None`` (the CFG builder
  adds a conservative fall-through edge);
* a ``@UP<n>`` uniform guard maps onto the per-thread predicate of the same
  index — a uniform guard is warp-invariant, so treating it as one more
  may-write guard only errs toward conservatism.

:func:`parse_instruction` and :func:`parse_program` are the strict mode of
the same grammar, for hand-written programs: where ingestion would degrade
(no opcode token, an opcode outside the catalog, an operand outside the
grammar, a symbolic target missing from the labels) they raise
:class:`ParseError`, and they read a trailing control bracket back into the
instruction's :class:`~repro.isa.instruction.ControlCode`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.isa.encoder import MODIFIERS
from repro.isa.instruction import INSTRUCTION_SIZE, ControlCode, Instruction
from repro.isa.opcodes import OPCODES
from repro.isa.registers import (
    ALWAYS,
    MemoryOperand,
    MemorySpace,
    Predicate,
    RegisterOperand,
    UniformPredicate,
)
from repro.sass.operands import (
    OperandError,
    extract_registers,
    parse_operand,
    parse_predicate,
    parse_uniform_predicate,
)

#: Opcodes whose first operand is a memory destination.
STORE_FIRST_OPCODES = frozenset({"STG", "STS", "STL", "ST", "RED", "LDGSTS"})

#: Opcodes whose leading (uniform) predicate operands are destinations.
PREDICATE_DEST_OPCODES = frozenset(
    {"ISETP", "FSETP", "DSETP", "PSETP", "R2P", "HSETP2", "UISETP", "PLOP3"}
)

#: Opcodes with no register destination.
NO_DEST_OPCODES = frozenset(
    {
        "BRA", "BRX", "JMP", "CAL", "CALL", "RET", "EXIT", "BAR", "MEMBAR",
        "DEPBAR", "BSSY", "BSYNC", "SSY", "SYNC", "NOP", "KILL", "YIELD",
        "NANOSLEEP", "WARPSYNC",
    }
)

#: Opcodes that may carry a carry-out predicate right after the register
#: destination (``IADD3 R2, P0, R2, R4, RZ``).
CARRY_PREDICATE_OPCODES = frozenset(
    {"IADD3", "UIADD3", "LEA", "ULEA", "IMAD", "ISCADD", "SHF", "USHF"}
)

#: Opcodes whose (first) operand is a branch/call target.
BRANCH_TARGET_OPCODES = frozenset({"BRA", "BRX", "JMP", "CAL", "CALL", "SSY", "BSSY"})

_KNOWN_MODIFIERS = frozenset(MODIFIERS)

_OFFSET_COMMENT_RE = re.compile(r"/\*\s*(?P<offset>[0-9a-fA-F]+)\s*\*/")
_HEX_COMMENT_RE = re.compile(r"/\*\s*0x[0-9a-fA-F]+\s*\*/")
_COMMENT_RE = re.compile(r"/\*.*?\*/")
#: Scheduling brackets in nvdisasm's field orders; the first also matches the
#: ``[B13:W0:R-:S1:Y]`` form :meth:`~repro.isa.instruction.ControlCode.render` writes.
_CONTROL_BRACKET_RE = re.compile(
    r"\[(?:B[0-6\-]+:){1,2}[RW][0-9\-]:[RW][0-9\-]:S\d+:?[Y\-]?\]"
    r"|\[B[0-6\-]+:R[0-9\-]:W[0-9\-]:[Y\-]:S\d+\]"
)
_SYMBOLIC_TARGET_RE = re.compile(r"^`?\(?\s*(?P<name>[.$A-Za-z_][.$A-Za-z0-9_]*)\s*\)?$")
_ABSOLUTE_TARGET_RE = re.compile(r"^-?(?:0x[0-9a-fA-F]+|\d+)$")
#: Target candidates that name a register, a predicate or a special
#: register (``CAL SR_GRIDID``): operands, never labels.
_OPERAND_NOT_TARGET_RE = re.compile(r"(?:RZ|R\d+|URZ|UR\d+|!?U?P[T\d]|SR_[.\w]*)")
#: A ``NAME:`` label, alone on its line or before an instruction.
LABEL_RE = re.compile(r"^(?P<label>[.$A-Za-z_][.$A-Za-z0-9_]*):\s*(?P<rest>.*)$")


@dataclass
class StrippedLine:
    """An instruction line with the disassembly noise removed."""

    text: str
    #: Offset from the leading ``/*0010*/`` comment, when present.
    offset: Optional[int] = None
    #: Whether the line was *only* comments/hex (an encoding continuation).
    empty: bool = False
    #: The control bracket the line carried (``[B13:W0:R-:S1:Y]``), if any.
    control: Optional[str] = None


def strip_line(raw: str) -> StrippedLine:
    """Remove offset/hex comments, control brackets and the trailing ``;``."""
    text = raw.strip()
    offset: Optional[int] = None
    leading = _OFFSET_COMMENT_RE.match(text)
    if leading and not _HEX_COMMENT_RE.match(text):
        offset = int(leading.group("offset"), 16)
        text = text[leading.end():]
    text = _HEX_COMMENT_RE.sub(" ", text)
    text = _COMMENT_RE.sub(" ", text)
    text = re.sub(r"//.*", " ", text)
    control = _CONTROL_BRACKET_RE.search(text)
    text = _CONTROL_BRACKET_RE.sub(" ", text)
    # Hopper-style scheduling tokens ride after the operands.
    text = re.sub(r"[&?][A-Za-z0-9_.]+", " ", text)
    text = text.replace(";", " ").strip()
    text = re.sub(r"\s+", " ", text)
    return StrippedLine(
        text=text,
        offset=offset,
        empty=not text,
        control=control.group(0) if control else None,
    )


@dataclass
class DecodedInstruction:
    """One lowered instruction plus its degradation ledger."""

    instruction: Instruction
    #: Symbolic branch target awaiting label resolution (``.L_x_3``).
    symbolic_target: Optional[str] = None
    unknown_opcode: bool = False
    unknown_modifiers: Tuple[str, ...] = ()
    operand_failures: Tuple[str, ...] = ()


def _split_operands(text: str) -> List[str]:
    """Split on top-level commas (brackets of any kind nest)."""
    operands: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char in "[({":
            depth += 1
        elif char in "])}":
            depth -= 1
        if char == "," and depth <= 0:
            operands.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        operands.append(current.strip())
    return operands


def _parse_guard(token: str) -> Predicate:
    """``@P0`` / ``@!P0`` / ``@UP3`` / ``@!UP3`` → a guard predicate."""
    body = token[1:]
    if "UP" in body:
        uniform = parse_uniform_predicate(body)
        return Predicate(uniform.index, negated=uniform.negated)
    return parse_predicate(body)


def decode_instruction(
    text: str,
    offset: int,
    listing_line: Optional[int] = None,
    source_name: Optional[str] = None,
) -> Optional[DecodedInstruction]:
    """Decode one stripped instruction text at ``offset``.

    Returns ``None`` for text with no decodable opcode token at all (the
    frontend records a warning instead of an instruction).  Never raises on
    instruction content — every failure degrades per the module rules.
    """
    text = text.strip()
    if not text:
        return None

    predicate = ALWAYS
    if text.startswith("@"):
        guard, _, rest = text.partition(" ")
        try:
            predicate = _parse_guard(guard)
        except OperandError:
            return None
        text = rest.strip()
        if not text:
            return None

    mnemonic, _, operand_text = text.partition(" ")
    parts = mnemonic.split(".")
    opcode, modifiers = parts[0], tuple(part for part in parts[1:] if part)
    if not re.fullmatch(r"[A-Z][A-Z0-9_]*", opcode):
        return None

    info = OPCODES.get(opcode)
    unknown = info is None
    unknown_modifiers = tuple(
        modifier for modifier in modifiers if modifier not in _KNOWN_MODIFIERS
    )
    space = info.memory_space if info and info.memory_space else MemorySpace.GLOBAL
    operand_tokens = _split_operands(operand_text) if operand_text.strip() else []

    target: Optional[int] = None
    symbolic_target: Optional[str] = None
    failures: List[str] = []
    fallback_sources: List[RegisterOperand] = []

    if opcode in BRANCH_TARGET_OPCODES and operand_tokens:
        # The target is the last operand (``BRX R4 0x0`` and predicated
        # forms keep earlier operands as ordinary sources).
        candidate = operand_tokens[-1].strip()
        absolute = _ABSOLUTE_TARGET_RE.match(candidate)
        symbolic = _SYMBOLIC_TARGET_RE.match(candidate)
        if absolute:
            target = int(candidate, 16) if "0x" in candidate.lower() else int(candidate)
            operand_tokens = operand_tokens[:-1]
        elif symbolic and not _OPERAND_NOT_TARGET_RE.fullmatch(candidate):
            symbolic_target = symbolic.group("name").lstrip("`(").rstrip(")")
            operand_tokens = operand_tokens[:-1]

    operands: List[object] = []
    for token in operand_tokens:
        try:
            operands.append(parse_operand(token, space))
        except OperandError:
            failures.append(token)
            fallback_sources.extend(extract_registers(token))

    dests: List[object] = []
    sources: List[object] = []
    if unknown:
        # Conservative placement: the first register operand is a may-def
        # (and still a use); everything parsed is a use.
        for operand in operands:
            if not dests and isinstance(operand, RegisterOperand) and not operand.is_zero:
                dests.append(operand)
            sources.append(operand)
    elif opcode in STORE_FIRST_OPCODES:
        if operands and isinstance(operands[0], MemoryOperand):
            dests.append(operands[0])
            sources.extend(operands[1:])
        else:
            sources.extend(operands)
    elif opcode in PREDICATE_DEST_OPCODES or opcode == "SHFL":
        remaining = list(operands)
        while remaining and isinstance(remaining[0], (Predicate, UniformPredicate)):
            dests.append(remaining.pop(0))
        if opcode == "SHFL" and remaining and isinstance(remaining[0], RegisterOperand):
            # ``SHFL.DOWN PT, Rd, Rs, ...``: the register destination rides
            # behind the predicate destination.
            dests.append(remaining.pop(0))
        sources.extend(remaining)
    elif opcode in NO_DEST_OPCODES:
        sources.extend(operands)
    else:
        remaining = list(operands)
        if remaining:
            dests.append(remaining.pop(0))
            if opcode in CARRY_PREDICATE_OPCODES:
                # Carry-out predicates follow the register destination
                # (``IADD3 R2, P0, ...``); trailing predicates are
                # carry-ins and stay sources.
                while (
                    remaining
                    and len(remaining) > 1
                    and isinstance(remaining[0], Predicate)
                    and not remaining[0].is_true_predicate
                ):
                    dests.append(remaining.pop(0))
        sources.extend(remaining)
    sources.extend(fallback_sources)

    instruction = Instruction(
        offset=offset,
        opcode=opcode,
        modifiers=modifiers,
        predicate=predicate,
        dests=tuple(dests),
        sources=tuple(sources),
        target=target,
        line=listing_line,
        source_file=source_name,
    )
    return DecodedInstruction(
        instruction=instruction,
        symbolic_target=symbolic_target,
        unknown_opcode=unknown,
        unknown_modifiers=unknown_modifiers,
        operand_failures=tuple(failures),
    )


class ParseError(ValueError):
    """Raised when strict parsing meets text that ingestion would degrade.

    Carries best-effort source context so failures on multi-line listings
    are actionable: ``source_name`` (file or listing name), ``line`` /
    ``column`` (1-based position in that source) and ``token`` (the
    offending token, when one is identifiable).  The rendered message is
    prefixed ``name:line:column:`` when context is available.
    """

    def __init__(
        self,
        message: str,
        *,
        source_name: Optional[str] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
        token: Optional[str] = None,
    ) -> None:
        self.bare_message = message
        self.source_name = source_name
        self.line = line
        self.column = column
        self.token = token
        super().__init__(self._format())

    def _format(self) -> str:
        if self.source_name is None and self.line is None:
            return self.bare_message
        location = self.source_name if self.source_name is not None else "<asm>"
        if self.line is not None:
            location += f":{self.line}"
            if self.column is not None:
                location += f":{self.column}"
        return f"{location}: {self.bare_message}"


def parse_instruction(
    text: str,
    offset: int = 0,
    labels: Optional[Dict[str, int]] = None,
    line: Optional[int] = None,
    source_name: Optional[str] = None,
    listing_line: Optional[int] = None,
) -> Instruction:
    """Parse one instruction strictly, such as ``render(with_control=True)`` text.

    The text is decoded like an ingested line (a leading ``/*0040*/`` sets
    the offset), and a trailing control bracket is read by
    :meth:`~repro.isa.instruction.ControlCode.parse`.  ``labels`` maps label
    names to offsets for symbolic branch targets.  Every degradation of
    :func:`decode_instruction` raises :class:`ParseError` instead; unknown
    modifiers are accepted.  ``source_name`` and ``listing_line`` name where
    the text came from and are attached to the error, with a best-effort
    column.  ``line`` is different: it is the *source-code* line the
    instruction maps to (the line-table annotation).
    """

    def error(message: str, token: Optional[str] = None) -> ParseError:
        position = text.find(token) if token else -1
        return ParseError(
            message,
            source_name=source_name,
            line=listing_line,
            column=position + 1 if position >= 0 else None,
            token=token,
        )

    stripped = strip_line(text)
    decoded = decode_instruction(
        stripped.text, offset=offset if stripped.offset is None else stripped.offset
    )
    if decoded is None:
        raise error(f"unrecognized instruction text {text.strip()!r}")
    instruction = decoded.instruction
    if decoded.unknown_opcode:
        raise error(f"unknown opcode: {instruction.opcode!r}", instruction.opcode)
    if decoded.operand_failures:
        token = decoded.operand_failures[0]
        raise error(f"cannot parse operand: {token!r}", token)
    target = instruction.target
    if decoded.symbolic_target is not None:
        target = (labels or {}).get(decoded.symbolic_target)
        if target is None:
            raise error(
                f"unresolved branch target {decoded.symbolic_target!r}",
                decoded.symbolic_target,
            )
    control = ControlCode()
    if stripped.control is not None:
        try:
            control = ControlCode.parse(stripped.control)
        except ValueError as exc:
            raise error(str(exc), stripped.control) from None
    return replace(instruction, control=control, target=target, line=line)


def parse_program(text: str, source_name: Optional[str] = None) -> List[Instruction]:
    """Parse a multi-line assembly listing strictly into a list of instructions.

    Supports blank lines, ``#`` / ``//`` comments (full-line or trailing),
    labels (``NAME:`` on their own line or ``NAME: INSTR`` inline) and
    symbolic branch targets.  Instructions are laid out at consecutive
    16-byte offsets starting from 0.  ``source_name`` names the listing in
    any :class:`ParseError`, which also carries the 1-based line (and
    best-effort column) of the failure.
    """
    labels: Dict[str, int] = {}
    bodies: List[Tuple[str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#")[0].split("//")[0].strip()
        label = LABEL_RE.match(body)
        if label:
            labels[label.group("label")] = INSTRUCTION_SIZE * len(bodies)
            body = label.group("rest").strip()
        if body and body != ";":
            bodies.append((body, INSTRUCTION_SIZE * len(bodies), lineno))
    return [
        parse_instruction(
            body, offset=offset, labels=labels, source_name=source_name, listing_line=lineno
        )
        for body, offset, lineno in bodies
    ]
