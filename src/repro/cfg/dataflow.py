"""Generic worklist dataflow over basic-block CFGs.

The solver sits with the CFG it iterates over because the blamer's
backward slicer (:mod:`repro.blame.slicing`) needs it on every advise, and
every analysis in :mod:`repro.staticcheck` instantiates it too: an
analysis describes itself as a :class:`DataflowProblem` (a direction, a
meet operator and a per-block transfer function) and :func:`solve_dataflow`
iterates it to a fixed point over the blocks of one
:class:`~repro.cfg.graph.ControlFlowGraph`.

Determinism matters here — lint reports are pinned byte-for-byte by golden
files — so the worklist is seeded and drained in reverse postorder (forward
problems) or its reverse (backward problems), and re-queued neighbours keep
that order.  Unreachable blocks participate too (``reverse_post_order``
appends them after the reachable blocks), so analyses never ``KeyError`` on
a malformed CFG; they simply keep their initial value.

:func:`compute_post_dominators` is the one special-cased analysis kept here:
the barrier-divergence rule needs post-dominance, and the CFGs we lint may
have several exit blocks (every ``EXIT``/``RET`` terminates a block with no
successors), so the sets are computed against a virtual exit joining them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List

from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph

#: Direction markers for :class:`DataflowProblem`.
FORWARD = "forward"
BACKWARD = "backward"


class DataflowProblem:
    """One dataflow analysis: direction, lattice values, transfer, meet.

    Values default to frozensets with union as the meet (the may-analysis
    shape liveness and the divergence taint share); a problem with a
    different lattice overrides :meth:`meet` and the two initial-value hooks.
    """

    #: :data:`FORWARD` (values flow entry -> exits along successor edges) or
    #: :data:`BACKWARD` (values flow exits -> entry along predecessor edges).
    direction: str = FORWARD

    def boundary_value(self) -> FrozenSet:
        """Value at the boundary: the entry's IN (forward) / an exit's OUT."""
        return frozenset()

    def initial_value(self) -> FrozenSet:
        """Optimistic initial value of every interior block."""
        return frozenset()

    def meet(self, values: Iterable[FrozenSet]) -> FrozenSet:
        """Combine the values flowing in over several edges (default: union)."""
        result: FrozenSet = frozenset()
        for value in values:
            result = result | value
        return result

    def transfer(self, block: BasicBlock, value: FrozenSet) -> FrozenSet:
        """Push ``value`` through ``block`` (IN -> OUT forward, OUT -> IN backward)."""
        raise NotImplementedError


@dataclass
class DataflowSolution:
    """Fixed point of one :class:`DataflowProblem` over one CFG.

    ``in_values[i]`` is the value at the *entry* of block ``i`` and
    ``out_values[i]`` the value at its *exit*, for either direction.
    """

    in_values: Dict[int, FrozenSet]
    out_values: Dict[int, FrozenSet]
    #: Blocks popped off the worklist until the fixed point (a determinism
    #: and termination canary for tests).
    iterations: int = 0

    def value_in(self, block_index: int) -> FrozenSet:
        return self.in_values[block_index]

    def value_out(self, block_index: int) -> FrozenSet:
        return self.out_values[block_index]


def solve_dataflow(cfg: ControlFlowGraph, problem: DataflowProblem) -> DataflowSolution:
    """Iterate ``problem`` over ``cfg`` to its fixed point."""
    if problem.direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown dataflow direction {problem.direction!r}")
    forward = problem.direction == FORWARD
    order = cfg.reverse_post_order()
    if not forward:
        order = list(reversed(order))
    position = {block_index: rank for rank, block_index in enumerate(order)}
    blocks = {block.index: block for block in cfg.blocks}

    if forward:
        inputs_of = cfg.predecessors
        outputs_of = cfg.successors
    else:
        inputs_of = cfg.successors
        outputs_of = cfg.predecessors

    in_values: Dict[int, FrozenSet] = {}
    out_values: Dict[int, FrozenSet] = {}
    for block_index in order:
        in_values[block_index] = problem.initial_value()
        out_values[block_index] = problem.transfer(blocks[block_index], in_values[block_index])

    worklist = deque(order)
    queued = set(order)
    iterations = 0
    while worklist:
        block_index = worklist.popleft()
        queued.discard(block_index)
        iterations += 1

        incoming = [out_values[edge] for edge in inputs_of.get(block_index, [])]
        is_boundary = (
            block_index == cfg.entry_index if forward else not cfg.successors.get(block_index)
        )
        if is_boundary:
            incoming = [problem.boundary_value(), *incoming]
        new_in = problem.meet(incoming) if incoming else problem.initial_value()
        new_out = problem.transfer(blocks[block_index], new_in)
        if new_in == in_values[block_index] and new_out == out_values[block_index]:
            continue
        in_values[block_index] = new_in
        out_values[block_index] = new_out
        for affected in sorted(outputs_of.get(block_index, []), key=lambda b: position[b]):
            if affected not in queued:
                worklist.append(affected)
                queued.add(affected)

    # Present both views with "in = block entry" regardless of direction.
    if forward:
        return DataflowSolution(in_values=in_values, out_values=out_values, iterations=iterations)
    return DataflowSolution(in_values=out_values, out_values=in_values, iterations=iterations)


def reachable_blocks(cfg: ControlFlowGraph) -> FrozenSet[int]:
    """Block indices reachable from the entry along successor edges."""
    seen = {cfg.entry_index}
    frontier = [cfg.entry_index]
    while frontier:
        block_index = frontier.pop()
        for successor in cfg.successors.get(block_index, []):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)


def compute_post_dominators(cfg: ControlFlowGraph) -> Dict[int, FrozenSet[int]]:
    """Post-dominator *sets* of every block, against a virtual common exit.

    Block ``b`` post-dominates block ``a`` when ``b in result[a]`` — every
    path from ``a`` to any exit block passes through ``b``.  The relation is
    reflexive.  Blocks that cannot reach an exit at all (an infinite loop)
    conservatively keep the full block set, which reads as "everything
    post-dominates them": rules built on this must treat such blocks as
    hazard-free rather than invent paths that do not exist.
    """
    all_blocks = frozenset(block.index for block in cfg.blocks)
    exits: List[int] = [
        block.index for block in cfg.blocks if not cfg.successors.get(block.index)
    ]
    postdom: Dict[int, FrozenSet[int]] = {}
    for block in cfg.blocks:
        if block.index in exits:
            postdom[block.index] = frozenset({block.index})
        else:
            postdom[block.index] = all_blocks

    order = list(reversed(cfg.reverse_post_order()))
    changed = True
    while changed:
        changed = False
        for block_index in order:
            if block_index in exits:
                continue
            successors = cfg.successors.get(block_index, [])
            meet = all_blocks
            for successor in successors:
                meet = meet & postdom[successor]
            new_value = meet | {block_index}
            if new_value != postdom[block_index]:
                postdom[block_index] = new_value
                changed = True
    return postdom
