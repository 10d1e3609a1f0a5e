"""Static dependency-depth and ILP estimates.

The dynamic blame pass (:mod:`repro.blame.graph`) measures dependency chains
from executed samples; this is its static sibling: from the instruction
stream alone, estimate how deep the def-use chains of each basic block run
and how much instruction-level parallelism a scheduler could extract.

Within one block the estimate is exact for the model: instructions are
walked in order, each one starts when its used registers/predicates are
ready and finishes ``latency`` cycles later (latencies come from the target
:class:`~repro.arch.machine.GpuArchitecture`, so the figures are per-arch).
The block's *critical path* is the latest finish time; its *ILP* is total
issued latency over that path — 1.0 means a fully serial chain.

Across blocks no branch probabilities exist statically, so loop and function
aggregates chain their blocks serially: they are upper bounds on depth and
the corresponding lower bounds on ILP, which is the conservative direction
for "this loop is latency-bound" diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.machine import GpuArchitecture
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import LoopNestTree


def _round_ilp(total: int, depth: int) -> float:
    """Deterministic 4-decimal ILP figure (0.0 for an empty region)."""
    if depth <= 0:
        return 0.0
    return round(total / depth, 4)


@dataclass(frozen=True)
class BlockDepth:
    """Depth/ILP estimate of one basic block."""

    block_index: int
    instructions: int
    #: Sum of instruction latencies (the serial-execution cost).
    total_latency: int
    #: Length in cycles of the longest def-use chain through the block.
    critical_path: int
    #: ``total_latency / critical_path`` — available parallelism.
    ilp: float


@dataclass(frozen=True)
class LoopDepth:
    """Depth/ILP estimate of one natural loop body (blocks chained serially)."""

    loop_index: int
    header_offset: Optional[int]
    header_line: Optional[int]
    blocks: int
    instructions: int
    total_latency: int
    critical_path: int
    ilp: float


@dataclass
class DepthAnalysis:
    """Depth/ILP estimates for every block and loop of one function."""

    blocks: List[BlockDepth] = field(default_factory=list)
    loops: List[LoopDepth] = field(default_factory=list)
    #: Whole-function aggregate (all blocks chained serially).
    total_latency: int = 0
    critical_path: int = 0
    ilp: float = 0.0

    def block_depth(self, block_index: int) -> BlockDepth:
        for entry in self.blocks:
            if entry.block_index == block_index:
                return entry
        raise KeyError(f"no depth estimate for block {block_index}")


def estimate_depths(
    cfg: ControlFlowGraph,
    loop_nest: LoopNestTree,
    architecture: GpuArchitecture,
) -> DepthAnalysis:
    """Estimate dependency depth and ILP for ``cfg`` on ``architecture``."""
    analysis = DepthAnalysis()
    by_block: Dict[int, BlockDepth] = {}

    for block in cfg.blocks:
        finish: Dict[object, int] = {}
        critical = 0
        total = 0
        for instruction in block.instructions:
            latency = architecture.latency(instruction.full_opcode)
            start = 0
            for register in instruction.used_registers:
                start = max(start, finish.get(register.index, 0))
            for predicate in instruction.used_predicates:
                start = max(start, finish.get(("p", predicate.index), 0))
            done = start + latency
            total += latency
            critical = max(critical, done)
            for register in instruction.defined_registers:
                finish[register.index] = done
            for predicate in instruction.defined_predicates:
                finish[("p", predicate.index)] = done
        entry = BlockDepth(
            block_index=block.index,
            instructions=len(block.instructions),
            total_latency=total,
            critical_path=critical,
            ilp=_round_ilp(total, critical),
        )
        by_block[block.index] = entry
        analysis.blocks.append(entry)
        analysis.total_latency += total
        analysis.critical_path += critical

    analysis.ilp = _round_ilp(analysis.total_latency, analysis.critical_path)

    for loop in loop_nest.loops:
        block_entries = [by_block[index] for index in sorted(loop.blocks) if index in by_block]
        total = sum(entry.total_latency for entry in block_entries)
        depth = sum(entry.critical_path for entry in block_entries)
        analysis.loops.append(
            LoopDepth(
                loop_index=loop.index,
                header_offset=loop.header_offset,
                header_line=loop.header_line,
                blocks=len(block_entries),
                instructions=sum(entry.instructions for entry in block_entries),
                total_latency=total,
                critical_path=depth,
                ilp=_round_ilp(total, depth),
            )
        )
    analysis.loops.sort(key=lambda entry: entry.loop_index)
    return analysis
