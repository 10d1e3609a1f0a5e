"""Control flow graph construction.

``build_cfg`` consumes the instruction list of one function and produces a
:class:`ControlFlowGraph`:

1. identify *leaders* — the first instruction, every branch target, and every
   instruction following a branch/exit (this is the "split super blocks into
   basic blocks" step the paper applies to nvdisasm's raw output);
2. group instructions into :class:`~repro.cfg.basic_block.BasicBlock` runs;
3. add edges: fall-through edges for non-terminating blocks and predicated
   branches, taken edges for branch targets, and no successors after ``EXIT``
   / ``RET``.

The CFG exposes the queries GPA's analyses need: predecessor/successor sets,
instruction-to-block mapping, path existence, shortest/longest path lengths
measured in *instructions* (used by the dominator- and latency-based pruning
rules and the path-ratio apportioning heuristic), and reverse-postorder
traversal for the dominator computation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cfg.basic_block import BasicBlock
from repro.isa.instruction import Instruction


@dataclass
class ControlFlowGraph:
    """A per-function control flow graph over basic blocks."""

    blocks: List[BasicBlock]
    successors: Dict[int, List[int]]
    predecessors: Dict[int, List[int]]
    entry_index: int = 0

    # Populated lazily.
    _block_of_offset: Optional[Dict[int, int]] = field(default=None, repr=False)
    _instruction_of_offset: Optional[Dict[int, Instruction]] = field(default=None, repr=False)
    _position_of_offset: Optional[Dict[int, int]] = field(default=None, repr=False)
    _on_all_paths: Dict[Tuple[int, int], FrozenSet[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_index]

    def block_containing(self, offset: int) -> BasicBlock:
        """The basic block containing the instruction at ``offset``."""
        self._ensure_offset_maps()
        try:
            return self.blocks[self._block_of_offset[offset]]
        except KeyError as exc:
            raise KeyError(f"no instruction at offset {offset:#x}") from exc

    def instruction_at(self, offset: int) -> Instruction:
        """The instruction at ``offset``."""
        self._ensure_offset_maps()
        try:
            return self._instruction_of_offset[offset]
        except KeyError as exc:
            raise KeyError(f"no instruction at offset {offset:#x}") from exc

    def instructions(self) -> List[Instruction]:
        """All instructions in offset order."""
        result = []
        for block in self.blocks:
            result.extend(block.instructions)
        result.sort(key=lambda instruction: instruction.offset)
        return result

    def _ensure_offset_maps(self) -> None:
        if (self._block_of_offset is None or self._instruction_of_offset is None
                or self._position_of_offset is None):
            block_map: Dict[int, int] = {}
            instruction_map: Dict[int, Instruction] = {}
            position_map: Dict[int, int] = {}
            for block in self.blocks:
                for position, instruction in enumerate(block.instructions):
                    block_map[instruction.offset] = block.index
                    instruction_map[instruction.offset] = instruction
                    position_map[instruction.offset] = position
            self._block_of_offset = block_map
            self._instruction_of_offset = instruction_map
            self._position_of_offset = position_map

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def reverse_post_order(self) -> List[int]:
        """Block indices in reverse postorder from the entry block."""
        visited: Set[int] = set()
        order: List[int] = []

        def visit(index: int) -> None:
            stack = [(index, iter(self.successors.get(index, [])))]
            visited.add(index)
            while stack:
                node, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if successor not in visited:
                        visited.add(successor)
                        stack.append((successor, iter(self.successors.get(successor, []))))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        visit(self.entry_index)
        # Include unreachable blocks at the end so analyses never KeyError.
        for block in self.blocks:
            if block.index not in visited:
                order.append(block.index)
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Instruction-level path queries (for pruning and apportioning)
    # ------------------------------------------------------------------
    def instruction_path_exists(self, source_offset: int, dest_offset: int) -> bool:
        """Whether execution can flow from ``source_offset`` to ``dest_offset``."""
        return self.shortest_path_instructions(source_offset, dest_offset) is not None

    def shortest_path_instructions(
        self, source_offset: int, dest_offset: int
    ) -> Optional[int]:
        """Minimum number of instructions executed strictly between source and dest.

        Returns ``None`` when no path exists.  Both endpoints are excluded
        from the count; a def immediately followed by its use has distance 0.
        """
        return self._path_instructions(source_offset, dest_offset, longest=False)

    def longest_path_instructions(
        self, source_offset: int, dest_offset: int, limit: int = 4096
    ) -> Optional[int]:
        """Maximum (acyclic) number of instructions strictly between source and dest.

        Used by the apportioning heuristic: "if an instruction i has multiple
        paths to instruction j in a control flow graph, we use the longest
        one".  Cycles are not followed more than once (simple paths over the
        block graph); ``limit`` caps the returned value.
        """
        value = self._path_instructions(source_offset, dest_offset, longest=True)
        if value is None:
            return None
        return min(value, limit)

    def _path_instructions(
        self, source_offset: int, dest_offset: int, longest: bool
    ) -> Optional[int]:
        self._ensure_offset_maps()
        if source_offset not in self._block_of_offset or dest_offset not in self._block_of_offset:
            return None
        source_block = self.blocks[self._block_of_offset[source_offset]]
        dest_block = self.blocks[self._block_of_offset[dest_offset]]

        source_position = self._position_of_offset[source_offset]
        dest_position = self._position_of_offset[dest_offset]

        if source_block.index == dest_block.index and source_position < dest_position:
            within = dest_position - source_position - 1
            if not longest:
                return within
            # For the longest path also consider going around a cycle if one
            # exists; handled by the general search below, seeded with the
            # within-block distance.
            best = within
        else:
            best = None

        # Distance from the end of the source block to the start of each block.
        tail = source_block.size - source_position - 1

        # Search over block-level paths from successors of the source block.
        results: List[int] = []
        initial: List[Tuple[int, int, FrozenSet[int]]] = []
        for successor in self.successors.get(source_block.index, []):
            initial.append((successor, tail, frozenset({source_block.index})))

        best_by_block: Dict[int, int] = {}
        stack = initial
        while stack:
            block_index, distance, visited = stack.pop()
            if block_index == dest_block.index:
                results.append(distance + dest_position)
                # For shortest path we can prune aggressively via best_by_block.
                if not longest:
                    continue
            block = self.blocks[block_index]
            through = distance + block.size
            if not longest:
                previous = best_by_block.get(block_index)
                if previous is not None and previous <= distance:
                    continue
                best_by_block[block_index] = distance
            else:
                if block_index in visited:
                    continue
                if through > 4096:
                    through = 4096
            next_visited = visited | {block_index}
            for successor in self.successors.get(block_index, []):
                stack.append((successor, through, next_visited))

        if results:
            candidate = max(results) if longest else min(results)
            if best is None:
                best = candidate
            else:
                best = max(best, candidate) if longest else min(best, candidate)
        return best

    def blocks_on_all_paths(self, source_offset: int, dest_offset: int) -> FrozenSet[int]:
        """Indices of blocks that appear on *every* path from source to dest.

        Used by the dominator-based pruning rule: an intervening def ``k``
        kills the edge only if ``k`` lies on every control-flow path from the
        def ``i`` to the use ``j``.  Memoized per block pair.
        """
        self._ensure_offset_maps()
        pair = (self._block_of_offset[source_offset], self._block_of_offset[dest_offset])
        on_all = self._on_all_paths.get(pair)
        if on_all is None:
            # A block b is on every path iff removing b disconnects source
            # from dest (or b is the source/dest block itself).
            source_block, dest_block = pair
            on_all = self._on_all_paths[pair] = frozenset(
                block.index
                for block in self.blocks
                if block.index in pair
                or not self._reachable_avoiding(source_block, dest_block, block.index)
            )
        return on_all

    def _reachable_avoiding(self, start: int, goal: int, banned: int) -> bool:
        if start == banned or goal == banned:
            return False
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if node == goal:
                return True
            for successor in self.successors.get(node, []):
                if successor != banned and successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return False

    def __len__(self) -> int:
        return len(self.blocks)


def build_cfg(instructions: Sequence[Instruction]) -> ControlFlowGraph:
    """Build a control flow graph from a function's instruction list."""
    if not instructions:
        raise ValueError("cannot build a CFG from an empty instruction list")

    ordered = sorted(instructions, key=lambda instruction: instruction.offset)
    offsets = [instruction.offset for instruction in ordered]
    offset_set = set(offsets)

    # --- find leaders (split superblocks) -----------------------------
    leaders: Set[int] = {ordered[0].offset}
    for position, instruction in enumerate(ordered):
        if instruction.is_branch or instruction.is_exit or instruction.is_call:
            if position + 1 < len(ordered):
                leaders.add(ordered[position + 1].offset)
        if instruction.is_branch and instruction.target is not None:
            if instruction.target in offset_set:
                leaders.add(instruction.target)

    # --- group into blocks ---------------------------------------------
    blocks: List[BasicBlock] = []
    current: List[Instruction] = []
    for instruction in ordered:
        if instruction.offset in leaders and current:
            blocks.append(BasicBlock(index=len(blocks), instructions=current))
            current = []
        current.append(instruction)
    if current:
        blocks.append(BasicBlock(index=len(blocks), instructions=current))

    block_of_offset: Dict[int, int] = {}
    for block in blocks:
        for instruction in block.instructions:
            block_of_offset[instruction.offset] = block.index

    # --- add edges -------------------------------------------------------
    successors: Dict[int, List[int]] = {block.index: [] for block in blocks}
    predecessors: Dict[int, List[int]] = {block.index: [] for block in blocks}

    def add_edge(source: int, dest: int) -> None:
        if dest not in successors[source]:
            successors[source].append(dest)
            predecessors[dest].append(source)

    for position, block in enumerate(blocks):
        terminator = block.terminator
        next_block = blocks[position + 1] if position + 1 < len(blocks) else None
        if terminator is None:
            if next_block is not None:
                add_edge(block.index, next_block.index)
            continue
        if terminator.is_exit:
            # Real SASS commonly guards the exit (``@!P0 EXIT``): threads
            # whose predicate fails fall through to the next block.
            if terminator.is_predicated and next_block is not None:
                add_edge(block.index, next_block.index)
            continue
        if terminator.is_branch:
            if terminator.target is not None and terminator.target in block_of_offset:
                add_edge(block.index, block_of_offset[terminator.target])
            # A predicated branch (or a branch with an unknown/indirect
            # target) can fall through.
            if terminator.is_predicated or terminator.target is None or terminator.opcode == "BRX":
                if next_block is not None:
                    add_edge(block.index, next_block.index)
            continue
        # Calls and ordinary instructions fall through.
        if next_block is not None:
            add_edge(block.index, next_block.index)

    return ControlFlowGraph(
        blocks=blocks,
        successors=successors,
        predecessors=predecessors,
        entry_index=0,
    )
