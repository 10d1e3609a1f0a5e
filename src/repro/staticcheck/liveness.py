"""Register liveness and live-range pressure.

Liveness is the classic backward bit-vector analysis, instantiated over the
operand model of :mod:`repro.isa.registers`: which general registers may
still be read after a program point.  It feeds dead-write detection and the
live-range register pressure the occupancy cross-check uses.

Predicated instructions need care: ``@P0 MOV R1, ...`` only *may* write
``R1``, so a predicated definition does not make an earlier write dead.
``RZ`` (the hardwired zero register) is excluded everywhere — writes to it
are architectural discards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cfg.basic_block import BasicBlock
from repro.cfg.dataflow import BACKWARD, DataflowProblem, solve_dataflow
from repro.cfg.graph import ControlFlowGraph
from repro.isa.instruction import Instruction


def used_register_indices(instruction: Instruction) -> FrozenSet[int]:
    """Indices of the general registers ``instruction`` reads (``RZ`` excluded)."""
    return frozenset(register.index for register in instruction.used_registers)


def defined_register_indices(instruction: Instruction) -> FrozenSet[int]:
    """Indices of the general registers ``instruction`` writes (``RZ`` excluded)."""
    return frozenset(register.index for register in instruction.defined_registers)


def may_write_only(instruction: Instruction) -> bool:
    """Whether the instruction's register writes are *may*-writes.

    Two cases: a predicated write only happens for threads whose guard
    holds, and an instruction whose opcode is absent from the catalog
    (real-disassembly ingestion) has unknown semantics — we know which
    registers it *declares* but not whether it always writes them.  Both
    must neither kill earlier definitions nor count as dead writes, or the
    analyses would claim more than they know.
    """
    return instruction.is_predicated or instruction.is_unknown_op


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------
class LivenessProblem(DataflowProblem):
    """Backward may-analysis: ``in = use ∪ (out − def)`` per block."""

    direction = BACKWARD

    def __init__(self) -> None:
        self._summaries: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = {}

    def _summary(self, block: BasicBlock) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """(upward-exposed uses, unconditional defs) of ``block``."""
        cached = self._summaries.get(block.index)
        if cached is not None:
            return cached
        uses: set = set()
        defs: set = set()
        for instruction in block.instructions:
            uses.update(used_register_indices(instruction) - defs)
            if not may_write_only(instruction):
                defs.update(defined_register_indices(instruction))
        summary = (frozenset(uses), frozenset(defs))
        self._summaries[block.index] = summary
        return summary

    def transfer(self, block: BasicBlock, live_out: FrozenSet[int]) -> FrozenSet[int]:
        uses, defs = self._summary(block)
        return uses | (live_out - defs)


@dataclass(frozen=True)
class DeadWrite:
    """A register write whose value no later instruction can read."""

    offset: int
    register: int
    line: Optional[int] = None
    function: Optional[str] = None


@dataclass
class LivenessAnalysis:
    """Liveness fixed point plus the per-point summaries derived from it."""

    #: Registers live at each block's entry / exit.
    live_in: Dict[int, FrozenSet[int]]
    live_out: Dict[int, FrozenSet[int]]
    #: Maximum simultaneously-live register count within each block.
    block_pressure: Dict[int, int]
    #: The live-range register pressure of the whole function.
    max_pressure: int
    #: Offset of the program point where the maximum is reached (the
    #: earliest such point, for determinism).
    max_pressure_offset: Optional[int]
    #: Unconditional register writes that are dead at their program point.
    dead_writes: List[DeadWrite] = field(default_factory=list)


def analyze_liveness(cfg: ControlFlowGraph) -> LivenessAnalysis:
    """Solve liveness over ``cfg`` and derive pressure and dead writes."""
    solution = solve_dataflow(cfg, LivenessProblem())

    block_pressure: Dict[int, int] = {}
    max_pressure = 0
    max_pressure_offset: Optional[int] = None
    dead_writes: List[DeadWrite] = []

    for block in cfg.blocks:
        live = set(solution.value_out(block.index))
        best = len(live)
        best_offset = block.instructions[-1].offset if block.instructions else None
        # Walk the block backwards, maintaining the live set per point.
        for instruction in reversed(block.instructions):
            defs = defined_register_indices(instruction)
            if defs and not may_write_only(instruction):
                dead = defs - live
                for register in sorted(dead):
                    dead_writes.append(
                        DeadWrite(
                            offset=instruction.offset,
                            register=register,
                            line=instruction.line,
                        )
                    )
                live -= defs
            live |= used_register_indices(instruction)
            if len(live) >= best:
                best = len(live)
                best_offset = instruction.offset
        block_pressure[block.index] = best
        if best > max_pressure or (
            best == max_pressure
            and best_offset is not None
            and (max_pressure_offset is None or best_offset < max_pressure_offset)
        ):
            max_pressure = best
            max_pressure_offset = best_offset

    dead_writes.sort(key=lambda write: (write.offset, write.register))
    return LivenessAnalysis(
        live_in=dict(solution.in_values),
        live_out=dict(solution.out_values),
        block_pressure=block_pressure,
        max_pressure=max_pressure,
        max_pressure_offset=max_pressure_offset,
        dead_writes=dead_writes,
    )
