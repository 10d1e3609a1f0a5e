"""Cold-edge pruning (Section 4, "Prune cold edges").

Not every def-use edge causes the stalls observed at its destination.  The
three heuristic rules remove edges that cannot be responsible:

1. **Opcode-based pruning.**  Memory dependency stalls are attributed to
   memory (load) instructions only; synchronization stalls to
   synchronization instructions only; execution dependency stalls are not
   attributed to long-latency memory loads (which would show up as memory
   dependencies instead).  Because the same edge may be relevant for one
   stall reason and not another, opcode pruning is evaluated per reason at
   attribution time through :func:`edge_supports_reason`; an edge that
   supports *no* dependent reason present at its destination is removed from
   the graph outright.

2. **Dominator-based pruning.**  An edge ``i -> j`` is removed when a
   non-predicated instruction ``k`` that uses the same operands lies on every
   control-flow path from ``i`` to ``j`` — the stall would have been observed
   at ``k`` instead of ``j``.

3. **Instruction-latency-based pruning.**  An edge ``i -> j`` is removed when
   even the shortest path from ``i`` to ``j`` contains more instructions than
   the (upper bound) latency of ``i`` — by the time ``j`` issues, ``i``'s
   result has long been available.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Set

from repro.arch.machine import GpuArchitecture
from repro.blame.graph import DependencyEdge, DependencyGraph
from repro.blame.slicing import Resource
from repro.isa.instruction import Instruction
from repro.sampling.stall_reasons import StallReason
from repro.structure.program import ProgramStructure


@dataclass
class PruningStatistics:
    """How many edges each rule removed (reported in tests and benchmarks)."""

    total_edges: int = 0
    removed_by_opcode: int = 0
    removed_by_dominator: int = 0
    removed_by_latency: int = 0

    @property
    def removed_total(self) -> int:
        return self.removed_by_opcode + self.removed_by_dominator + self.removed_by_latency

    @property
    def remaining_edges(self) -> int:
        return self.total_edges - self.removed_total

    def to_dict(self) -> dict:
        return {
            "total_edges": self.total_edges,
            "removed_by_opcode": self.removed_by_opcode,
            "removed_by_dominator": self.removed_by_dominator,
            "removed_by_latency": self.removed_by_latency,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PruningStatistics":
        return cls(
            total_edges=payload["total_edges"],
            removed_by_opcode=payload["removed_by_opcode"],
            removed_by_dominator=payload["removed_by_dominator"],
            removed_by_latency=payload["removed_by_latency"],
        )


def edge_supports_reason(
    source_instruction: Instruction, reason: StallReason
) -> bool:
    """Opcode-based rule: can this source cause the given dependent stall?"""
    info = source_instruction.info
    if reason is StallReason.MEMORY_DEPENDENCY:
        # Only loads from the long-latency address spaces produce memory
        # dependency stalls.
        return info.is_load
    if reason is StallReason.SYNCHRONIZATION:
        return info.is_synchronization
    if reason is StallReason.EXECUTION_DEPENDENCY:
        # Long-latency loads surface as memory dependencies, not execution
        # dependencies; everything else (arithmetic, shared memory loads,
        # stores holding read barriers) can cause execution dependencies.
        from repro.isa.registers import MemorySpace

        if info.is_load and source_instruction.memory_space in (
            MemorySpace.GLOBAL,
            MemorySpace.GENERIC,
            MemorySpace.LOCAL,
            MemorySpace.CONSTANT,
            MemorySpace.TEXTURE,
        ):
            return False
        return not info.is_synchronization
    return False


def _dominator_rule_applies(
    edge: DependencyEdge,
    graph: DependencyGraph,
    structure: ProgramStructure,
) -> bool:
    """Whether an intervening non-predicated use kills the edge."""
    function_structure = structure.function(edge.source[0])
    cfg = function_structure.cfg
    source_offset = edge.source[1]
    dest_offset = edge.dest[1]
    registers: Set[int] = {index for kind, index in edge.resources if kind == "R"}
    if not registers:
        return False

    try:
        blocks_on_all_paths = cfg.blocks_on_all_paths(source_offset, dest_offset)
    except KeyError:
        return False
    source_block = cfg.block_containing(source_offset).index
    dest_block = cfg.block_containing(dest_offset).index

    for block_index in blocks_on_all_paths:
        uses = cfg.blocks[block_index].unpredicated_uses
        # In an endpoint's block only the instructions strictly between
        # source and dest in program position count.
        after = source_offset if block_index == source_block else None
        before = dest_offset if block_index == dest_block else None
        for register in registers:
            offsets = uses.get(register)
            if not offsets:
                continue
            position = 0 if after is None else bisect_right(offsets, after)
            if position < len(offsets) and (before is None or offsets[position] < before):
                return True
    return False


def _latency_rule_applies(
    edge: DependencyEdge,
    structure: ProgramStructure,
    architecture: GpuArchitecture,
) -> bool:
    """Whether every path from source to dest is longer than the source latency."""
    function_structure = structure.function(edge.source[0])
    cfg = function_structure.cfg
    source_instruction = cfg.instruction_at(edge.source[1])
    latency = architecture.latency_upper_bound(source_instruction.full_opcode)
    shortest = cfg.shortest_path_instructions(edge.source[1], edge.dest[1])
    if shortest is None:
        return False
    return shortest > latency


def prune_cold_edges(
    graph: DependencyGraph,
    structure: ProgramStructure,
    architecture: GpuArchitecture,
) -> PruningStatistics:
    """Apply the three pruning rules in place; returns removal statistics."""
    statistics = PruningStatistics(total_edges=len(graph.edges))
    to_remove: List[DependencyEdge] = []

    for edge in graph.edges:
        if edge.source[0] != edge.dest[0]:
            # Dependencies are intra-function by construction; drop anything else.
            to_remove.append(edge)
            statistics.removed_by_opcode += 1
            continue
        dest_node = graph.node(edge.dest)
        source_node = graph.node(edge.source)
        dependent_reasons = [
            reason for reason in dest_node.dependent_stalls() if dest_node.stalls.get(reason)
        ]

        # Rule 1: opcode-based.  Remove the edge when it supports none of the
        # dependent stall reasons present at the destination.
        if dependent_reasons and not any(
            edge_supports_reason(source_node.instruction, reason)
            for reason in dependent_reasons
        ):
            to_remove.append(edge)
            statistics.removed_by_opcode += 1
            continue

        # Rule 2: dominator-based.
        if _dominator_rule_applies(edge, graph, structure):
            to_remove.append(edge)
            statistics.removed_by_dominator += 1
            continue

        # Rule 3: instruction-latency-based.
        if _latency_rule_applies(edge, structure, architecture):
            to_remove.append(edge)
            statistics.removed_by_latency += 1
            continue

    graph.remove_edges(to_remove)
    return statistics
