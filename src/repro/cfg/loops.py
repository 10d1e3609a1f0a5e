"""Natural-loop detection and loop-nest trees.

GPA's static analyzer uses Dyninst to recover loop nests from the control
flow graph; the Loop Unrolling optimizer and the scope-limited latency-hiding
estimator (Equation 5) consume them.  This module finds natural loops via
back edges (edges whose target dominates their source), merges loops sharing
a header, and arranges them into a nesting tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cfg.dominators import DominatorTree, compute_dominator_tree
from repro.cfg.graph import ControlFlowGraph
from repro.isa.instruction import Instruction


@dataclass
class Loop:
    """One natural loop: a header block plus its body blocks."""

    #: Stable identifier within the function (assigned in header-offset order).
    index: int
    #: Block index of the loop header.
    header: int
    #: All block indices in the loop, including the header.
    blocks: FrozenSet[int]
    #: Back edges (source block -> header) that define the loop.
    back_edges: Tuple[Tuple[int, int], ...]
    #: Parent loop index in the nest tree, or ``None`` for outermost loops.
    parent: Optional[int] = None
    #: Children loop indices.
    children: List[int] = field(default_factory=list)
    #: Source line of the first instruction of the header (for reports).
    header_line: Optional[int] = None
    #: Byte offset of the first instruction of the header.
    header_offset: Optional[int] = None

    def contains_block(self, block_index: int) -> bool:
        return block_index in self.blocks

    def __repr__(self) -> str:
        line = f", line={self.header_line}" if self.header_line is not None else ""
        return f"Loop(index={self.index}, header_block={self.header}, blocks={sorted(self.blocks)}{line})"


@dataclass
class LoopNestTree:
    """The loops of one function arranged by containment."""

    loops: List[Loop]
    cfg: ControlFlowGraph

    def outermost(self) -> List[Loop]:
        """Loops with no parent."""
        return [loop for loop in self.loops if loop.parent is None]

    def loop(self, index: int) -> Loop:
        return self.loops[index]

    def innermost_loop_containing(self, offset: int) -> Optional[Loop]:
        """The innermost loop containing the instruction at ``offset``."""
        try:
            block = self.cfg.block_containing(offset)
        except KeyError:
            return None
        best: Optional[Loop] = None
        for loop in self.loops:
            if loop.contains_block(block.index):
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def loops_containing(self, offset: int) -> List[Loop]:
        """All loops containing the instruction at ``offset``, innermost first."""
        try:
            block = self.cfg.block_containing(offset)
        except KeyError:
            return []
        containing = [loop for loop in self.loops if loop.contains_block(block.index)]
        containing.sort(key=lambda loop: len(loop.blocks))
        return containing

    def nested_loops(self, loop: Loop) -> List[Loop]:
        """The loop itself plus every loop nested (transitively) inside it."""
        result = [loop]
        queue = list(loop.children)
        while queue:
            child = self.loops[queue.pop()]
            result.append(child)
            queue.extend(child.children)
        return result

    def instructions_in_loop(self, loop: Loop) -> List[Instruction]:
        """All instructions belonging to the loop body."""
        instructions: List[Instruction] = []
        for block_index in sorted(loop.blocks):
            instructions.extend(self.cfg.blocks[block_index].instructions)
        return instructions

    def same_loop(self, offset_a: int, offset_b: int) -> bool:
        """Whether two instructions share at least one containing loop."""
        loops_a = {loop.index for loop in self.loops_containing(offset_a)}
        if not loops_a:
            return False
        loops_b = {loop.index for loop in self.loops_containing(offset_b)}
        return bool(loops_a & loops_b)

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)


def find_loops(
    cfg: ControlFlowGraph, dominator_tree: Optional[DominatorTree] = None
) -> LoopNestTree:
    """Find natural loops in ``cfg`` and build the loop-nest tree."""
    dominator_tree = dominator_tree or compute_dominator_tree(cfg)

    # --- collect back edges ----------------------------------------------
    back_edges: List[Tuple[int, int]] = []
    for block in cfg.blocks:
        for successor in cfg.successors.get(block.index, []):
            if dominator_tree.dominates(successor, block.index):
                back_edges.append((block.index, successor))

    # --- natural loop of each back edge, merged per header -----------------
    bodies: Dict[int, Set[int]] = {}
    edges_by_header: Dict[int, List[Tuple[int, int]]] = {}
    for source, header in back_edges:
        body = bodies.setdefault(header, {header})
        edges_by_header.setdefault(header, []).append((source, header))
        stack = [source]
        while stack:
            node = stack.pop()
            if node in body:
                continue
            body.add(node)
            stack.extend(cfg.predecessors.get(node, []))

    # --- create Loop objects, outermost-last ordering by size ---------------
    headers = sorted(bodies, key=lambda header: cfg.blocks[header].start_offset)
    loops: List[Loop] = []
    for index, header in enumerate(headers):
        header_block = cfg.blocks[header]
        first_instruction = header_block.instructions[0] if header_block.instructions else None
        loops.append(
            Loop(
                index=index,
                header=header,
                blocks=frozenset(bodies[header]),
                back_edges=tuple(edges_by_header[header]),
                header_line=first_instruction.line if first_instruction else None,
                header_offset=first_instruction.offset if first_instruction else None,
            )
        )

    # --- nesting: the parent of a loop is the smallest strictly-containing loop
    for loop in loops:
        best_parent: Optional[Loop] = None
        for candidate in loops:
            if candidate.index == loop.index:
                continue
            if loop.blocks < candidate.blocks or (
                loop.blocks <= candidate.blocks and loop.header != candidate.header
            ):
                if best_parent is None or len(candidate.blocks) < len(best_parent.blocks):
                    best_parent = candidate
        if best_parent is not None:
            loop.parent = best_parent.index
            best_parent.children.append(loop.index)

    return LoopNestTree(loops=loops, cfg=cfg)
