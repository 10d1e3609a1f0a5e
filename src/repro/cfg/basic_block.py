"""Basic blocks.

A basic block is a maximal straight-line sequence of instructions with a
single entry (the first instruction) and a single exit (the last
instruction).  nvdisasm emits *super blocks* that may span branch targets;
GPA splits them so that every branch target starts a block — the same
splitting is performed by :func:`repro.cfg.graph.build_cfg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.isa.instruction import Instruction


@dataclass
class BasicBlock:
    """A contiguous run of instructions ending at a control transfer."""

    #: Index of the block within its CFG (assigned by the builder).
    index: int
    #: Instructions in program order.
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def start_offset(self) -> int:
        """Byte offset of the first instruction."""
        if not self.instructions:
            raise ValueError("empty basic block has no start offset")
        return self.instructions[0].offset

    @property
    def end_offset(self) -> int:
        """Byte offset of the last instruction."""
        if not self.instructions:
            raise ValueError("empty basic block has no end offset")
        return self.instructions[-1].offset

    @property
    def terminator(self) -> Optional[Instruction]:
        """The last instruction, if any."""
        return self.instructions[-1] if self.instructions else None

    @property
    def size(self) -> int:
        """Number of instructions in the block."""
        return len(self.instructions)

    def lines(self) -> Tuple[int, ...]:
        """Distinct source lines mapped to instructions of the block."""
        seen = []
        for instruction in self.instructions:
            if instruction.line is not None and instruction.line not in seen:
                seen.append(instruction.line)
        return tuple(seen)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        if not self.instructions:
            return f"BasicBlock(index={self.index}, empty)"
        return (
            f"BasicBlock(index={self.index}, "
            f"offsets={self.start_offset:#x}-{self.end_offset:#x}, "
            f"n={len(self.instructions)})"
        )
