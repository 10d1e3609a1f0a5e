"""Instruction and control-code model.

A Volta instruction is one 128-bit word.  Besides the opcode, modifiers,
predicate and operands, every instruction carries a *control code* that
guides the warp scheduler (Section 2.2 of the paper):

* **stall cycles** — for fixed-latency producers, how long the scheduler
  must wait before issuing the *next* instruction of the warp;
* **yield flag** — whether the scheduler may switch to another warp;
* **write barrier** — barrier register index set by a variable-latency
  instruction that will *write* its destination later (cleared when the
  result arrives);
* **read barrier** — barrier register index set by a variable-latency
  instruction that still needs to *read* its source operands (cleared when
  the operands have been consumed; used to enforce WAR dependencies);
* **wait mask** — set of barrier indices this instruction must wait on
  before issuing.

The instruction blamer treats write/read barrier indices as *defs* of the
virtual barrier registers B0-B5 and wait-mask bits as *uses*, so control-code
dependencies flow through the same def-use analysis as register operands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import FrozenSet, Optional, Tuple

from repro.isa.opcodes import OpcodeInfo, lookup_opcode_tolerant, opcode_is_known
from repro.isa.registers import (
    ALWAYS,
    BarrierRegister,
    MemoryOperand,
    MemorySpace,
    Predicate,
    RegisterOperand,
)

#: Size of one encoded instruction in bytes (128-bit words on Volta+).
INSTRUCTION_SIZE = 16

#: Maximum stall-cycle value encodable in a control code (4 bits).
MAX_STALL_CYCLES = 15

_CONTROL_RE = re.compile(
    r"\[B(?P<wait>[0-5\-]+):W(?P<write>[0-5\-]):R(?P<read>[0-5\-]):S(?P<stall>\d+):(?P<yield>[Y\-])\]"
)


@dataclass(frozen=True)
class ControlCode:
    """The scheduler-control fields of an instruction."""

    stall_cycles: int = 1
    yield_flag: bool = True
    write_barrier: Optional[int] = None
    read_barrier: Optional[int] = None
    wait_mask: FrozenSet[int] = frozenset()
    reuse_flags: Tuple[bool, bool, bool, bool] = (False, False, False, False)

    def __post_init__(self) -> None:
        if not 0 <= self.stall_cycles <= MAX_STALL_CYCLES:
            raise ValueError(f"stall cycles out of range: {self.stall_cycles}")
        for name in ("write_barrier", "read_barrier"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < 6:
                raise ValueError(f"{name} out of range: {value}")
        for bit in self.wait_mask:
            if not 0 <= bit < 6:
                raise ValueError(f"wait mask bit out of range: {bit}")

    @property
    def defined_barriers(self) -> FrozenSet[BarrierRegister]:
        """Barrier registers written (set) by this instruction."""
        barriers = set()
        if self.write_barrier is not None:
            barriers.add(BarrierRegister(self.write_barrier))
        if self.read_barrier is not None:
            barriers.add(BarrierRegister(self.read_barrier))
        return frozenset(barriers)

    @property
    def waited_barriers(self) -> FrozenSet[BarrierRegister]:
        """Barrier registers read (waited on) by this instruction."""
        return frozenset(BarrierRegister(i) for i in self.wait_mask)

    def render(self) -> str:
        """Render the control code in an nvdisasm-like bracket notation."""
        wait = "".join(str(i) for i in sorted(self.wait_mask)) or "-"
        wbar = str(self.write_barrier) if self.write_barrier is not None else "-"
        rbar = str(self.read_barrier) if self.read_barrier is not None else "-"
        yield_marker = "Y" if self.yield_flag else "-"
        return f"[B{wait}:W{wbar}:R{rbar}:S{self.stall_cycles}:{yield_marker}]"

    @classmethod
    def parse(cls, text: str) -> "ControlCode":
        """Read back the bracket notation :meth:`render` writes.

        Raises :class:`ValueError` for any other text or an out-of-range
        field.
        """
        match = _CONTROL_RE.fullmatch(text.strip())
        if match is None:
            raise ValueError(f"cannot parse control code: {text!r}")
        write, read = match.group("write"), match.group("read")
        return cls(
            stall_cycles=int(match.group("stall")),
            yield_flag=match.group("yield") == "Y",
            write_barrier=None if write == "-" else int(write),
            read_barrier=None if read == "-" else int(read),
            wait_mask=frozenset(int(bit) for bit in match.group("wait") if bit != "-"),
        )


@dataclass(frozen=True)
class Instruction:
    """A single decoded SASS-like instruction.

    ``offset`` is the byte offset of the instruction within its function
    (each instruction occupies 16 bytes).  ``line`` and ``inline_stack`` carry
    the source mapping recovered from line tables and DWARF-like inline
    information; they power GPA's line/loop/function level advice.
    """

    offset: int
    opcode: str
    modifiers: Tuple[str, ...] = ()
    predicate: Predicate = ALWAYS
    dests: Tuple[object, ...] = ()
    sources: Tuple[object, ...] = ()
    control: ControlCode = field(default_factory=ControlCode)
    #: Branch / call target offset for control-flow instructions.
    target: Optional[int] = None
    #: Source line number the instruction maps to, if line info is present.
    line: Optional[int] = None
    #: Source file the instruction maps to.
    source_file: Optional[str] = None
    #: Inline call stack (outermost first) of function names, if inlined.
    inline_stack: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Static metadata
    # ------------------------------------------------------------------
    @cached_property
    def info(self) -> OpcodeInfo:
        """Opcode metadata from the catalog.

        Opcodes absent from the catalog (possible when the instruction was
        ingested from a real disassembly listing) resolve to the
        conservative :data:`~repro.isa.opcodes.UNKNOWN_OPCODE_INFO` rather
        than raising; check :attr:`is_unknown_op` to distinguish them.
        """
        return lookup_opcode_tolerant(self.full_opcode)

    @cached_property
    def is_unknown_op(self) -> bool:
        """Whether the opcode is absent from the catalog (conservative op)."""
        return not opcode_is_known(self.full_opcode)

    @cached_property
    def full_opcode(self) -> str:
        """Opcode plus modifiers, e.g. ``LDG.E.32``."""
        if self.modifiers:
            return ".".join((self.opcode,) + self.modifiers)
        return self.opcode

    @property
    def is_predicated(self) -> bool:
        """Whether the instruction is guarded by a non-trivial predicate."""
        return not self.predicate.is_true_predicate

    @cached_property
    def is_memory(self) -> bool:
        return self.info.is_memory

    @cached_property
    def is_load(self) -> bool:
        return self.info.is_load

    @cached_property
    def is_store(self) -> bool:
        return self.info.is_store

    @cached_property
    def is_synchronization(self) -> bool:
        return self.info.is_synchronization

    @cached_property
    def is_control(self) -> bool:
        return self.info.is_control

    @property
    def is_branch(self) -> bool:
        return self.opcode in ("BRA", "BRX", "JMP")

    @property
    def is_call(self) -> bool:
        return self.opcode in ("CAL", "CALL")

    @property
    def is_exit(self) -> bool:
        return self.opcode in ("EXIT", "RET")

    @cached_property
    def memory_space(self) -> Optional[MemorySpace]:
        """Address space of the memory access, if this is a memory op."""
        for operand in self.sources + self.dests:
            if isinstance(operand, MemoryOperand):
                return operand.space
        return self.info.memory_space

    # ------------------------------------------------------------------
    # Def / use sets
    # ------------------------------------------------------------------
    @cached_property
    def defined_registers(self) -> FrozenSet[RegisterOperand]:
        """General-purpose registers written by this instruction.

        Wide destinations expand to consecutive registers: ``.64`` results
        (and fp64 arithmetic, ``IMAD.WIDE``) occupy a register pair, ``.128``
        vector loads occupy four registers.
        """
        regs = set()
        width = self._dest_width()
        for operand in self.dests:
            if isinstance(operand, RegisterOperand) and not operand.is_zero:
                regs.update(self._expand_register(operand, width))
            elif isinstance(operand, MemoryOperand):
                # A store destination is memory, not a register def.
                pass
        return frozenset(regs)

    @cached_property
    def used_registers(self) -> FrozenSet[RegisterOperand]:
        """General-purpose registers read by this instruction.

        A store's memory operand appears among the destinations for
        readability (``STG [R2], R0``), but its address registers are *reads*
        and are therefore included here.  Wide register sources expand like
        wide destinations: fp64 arithmetic reads register pairs, and the
        stored value of a ``.64``/``.128`` store spans two/four registers.
        """
        regs = set()
        width = self._source_width()
        for operand in self.sources:
            if isinstance(operand, RegisterOperand) and not operand.is_zero:
                regs.update(self._expand_register(operand, width))
            elif isinstance(operand, MemoryOperand):
                regs.update(operand.address_registers())
        for operand in self.dests:
            if isinstance(operand, MemoryOperand):
                regs.update(operand.address_registers())
        return frozenset(r for r in regs if not r.is_zero)

    @property
    def defined_predicates(self) -> FrozenSet[Predicate]:
        """Predicate registers written (as a plain, non-negated reference)."""
        preds = set()
        for operand in self.dests:
            if isinstance(operand, Predicate) and not operand.is_true_predicate:
                preds.add(Predicate(operand.index, False))
        return frozenset(preds)

    @property
    def used_predicates(self) -> FrozenSet[Predicate]:
        """Predicate registers read, including the guard predicate."""
        preds = set()
        if self.is_predicated:
            preds.add(Predicate(self.predicate.index, False))
        for operand in self.sources:
            if isinstance(operand, Predicate) and not operand.is_true_predicate:
                preds.add(Predicate(operand.index, False))
        return frozenset(preds)

    @property
    def defined_barriers(self) -> FrozenSet[BarrierRegister]:
        """Virtual barrier registers set by this instruction's control code."""
        return self.control.defined_barriers

    @property
    def waited_barriers(self) -> FrozenSet[BarrierRegister]:
        """Virtual barrier registers waited on by this instruction."""
        return self.control.waited_barriers

    @staticmethod
    def _expand_register(operand: RegisterOperand, width: int):
        """``operand`` plus the consecutive registers a ``width``-wide value
        occupies (stopping at the register file boundary)."""
        for step in range(width):
            index = operand.index + step
            if index >= 255:  # RZ and beyond: architectural discard
                break
            yield RegisterOperand(index)

    def _dest_width(self) -> int:
        """How many consecutive registers the destination occupies."""
        if "128" in self.modifiers:
            return 4
        if "64" in self.modifiers or self.opcode in ("DADD", "DMUL", "DFMA"):
            return 2
        if self.opcode == "IMAD" and "WIDE" in self.modifiers:
            return 2
        return 1

    def _source_width(self) -> int:
        """How many consecutive registers wide register *sources* span.

        fp64 arithmetic reads register pairs; the value operand of a wide
        store spans the store width.  ``IMAD.WIDE`` is excluded: it reads
        32-bit sources and only its destination is wide.
        """
        if self.opcode in ("DADD", "DMUL", "DFMA", "DSETP"):
            return 2
        if self.is_store:
            if "128" in self.modifiers:
                return 4
            if "64" in self.modifiers:
                return 2
        return 1

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_control(self, control: ControlCode) -> "Instruction":
        """Return a copy with a different control code."""
        return replace(self, control=control)

    def render(self, with_control: bool = False) -> str:
        """Render the instruction as assembly text."""
        parts = []
        if self.is_predicated:
            parts.append(f"@{self.predicate}")
        parts.append(self.full_opcode)
        operand_strs = [str(op) for op in self.dests] + [str(op) for op in self.sources]
        if self.target is not None and not operand_strs:
            operand_strs.append(f"{self.target:#x}")
        text = " ".join(parts)
        if operand_strs:
            text += " " + ", ".join(operand_strs)
        if with_control:
            text += f" {self.control.render()}"
        return text

    def __str__(self) -> str:
        return f"/*{self.offset:04x}*/ {self.render()}"
