"""Dominator tree computation.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm over the
basic-block CFG.  Dominators feed the loop detector (a back edge is an edge
whose target dominates its source) and support structural queries used by
optimizers and the report generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cfg.graph import ControlFlowGraph


@dataclass
class DominatorTree:
    """Immediate-dominator relation over basic blocks of one CFG."""

    #: Immediate dominator of each block index (the entry maps to itself).
    immediate_dominators: Dict[int, int]
    entry_index: int

    def dominates(self, a: int, b: int) -> bool:
        """Whether block ``a`` dominates block ``b`` (reflexive)."""
        node = b
        while True:
            if node == a:
                return True
            parent = self.immediate_dominators.get(node)
            if parent is None or parent == node:
                return node == a
            node = parent

    def strictly_dominates(self, a: int, b: int) -> bool:
        """Whether ``a`` dominates ``b`` and ``a != b``."""
        return a != b and self.dominates(a, b)

    def dominators_of(self, block_index: int) -> List[int]:
        """All dominators of ``block_index`` from the block to the entry."""
        chain = [block_index]
        node = block_index
        while True:
            parent = self.immediate_dominators.get(node)
            if parent is None or parent == node:
                break
            chain.append(parent)
            node = parent
        return chain

    def children(self, block_index: int) -> List[int]:
        """Blocks immediately dominated by ``block_index``."""
        return sorted(
            node
            for node, parent in self.immediate_dominators.items()
            if parent == block_index and node != block_index
        )


def compute_dominator_tree(cfg: ControlFlowGraph) -> DominatorTree:
    """Compute the dominator tree of ``cfg``."""
    order = cfg.reverse_post_order()
    # Restrict to blocks reachable from the entry; unreachable blocks get the
    # entry as a conservative dominator so queries never fail.
    position = {block_index: index for index, block_index in enumerate(order)}

    idom: Dict[int, Optional[int]] = {block.index: None for block in cfg.blocks}
    idom[cfg.entry_index] = cfg.entry_index

    def intersect(a: int, b: int) -> int:
        finger_a, finger_b = a, b
        while finger_a != finger_b:
            while position[finger_a] > position[finger_b]:
                parent = idom[finger_a]
                if parent is None:
                    return finger_b
                finger_a = parent
            while position[finger_b] > position[finger_a]:
                parent = idom[finger_b]
                if parent is None:
                    return finger_a
                finger_b = parent
        return finger_a

    changed = True
    while changed:
        changed = False
        for block_index in order:
            if block_index == cfg.entry_index:
                continue
            predecessors = [
                pred for pred in cfg.predecessors.get(block_index, []) if idom[pred] is not None
            ]
            if not predecessors:
                continue
            new_idom = predecessors[0]
            for pred in predecessors[1:]:
                new_idom = intersect(new_idom, pred)
            if idom[block_index] != new_idom:
                idom[block_index] = new_idom
                changed = True

    resolved = {
        block_index: (dominator if dominator is not None else cfg.entry_index)
        for block_index, dominator in idom.items()
    }
    return DominatorTree(immediate_dominators=resolved, entry_index=cfg.entry_index)
