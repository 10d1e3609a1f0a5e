"""Backward slicing for GPU instructions.

The slicer finds, for a *use* instruction, the immediate def instructions of
every resource it reads.  Three aspects distinguish it from classic CPU
binary slicing (Section 4, "Backward slicing"):

* **Virtual barrier registers.**  A write/read barrier index in a control
  code is treated as a def of the corresponding virtual barrier register
  ``B0``-``B5`` and a wait mask as a use, so dependencies carried only
  through control codes (Figure 3: a ``BRA`` that waits on the barrier set by
  an ``LDG`` without reading its destination register) are discovered by the
  same def-use machinery.

* **Predicates.**  A later def hides an earlier def of the same resource
  only once the union of the later defs' predicates *covers* the predicate
  of the use instruction (Figure 4a — an unpredicated use of ``R0`` may
  depend on ``@P0 LDG R0`` *and* on ``@!P0 LDC R0`` earlier on the path).

* **Scope.**  Slicing is intra-function and finds only immediate dependency
  sources; transitive dependencies are unlikely to cause the observed stalls.

The slices of one function come from one forward may-analysis that
:func:`~repro.cfg.dataflow.solve_dataflow` solves.  Its value at a
program point maps each resource to a set of pairs: the offset of a def of
the resource that reaches the point along some path, and the predicate keys
of the later defs of that resource on the path.  A def of the resource

* adds its guard's key to every pair of the resource,
* drops each pair whose keys now cover every guard (``_``, or both ``Pn``
  and ``!Pn``), since such a def reaches no use, and
* adds the pair ``(itself, ∅)``.

The meet is the union per resource.  A use depends on the defs of the pairs
whose keys do not cover its own guard.  The keys are subsets of a finite set
of predicate keys, so the lattice is finite and the solve needs no cap on
the paths it follows.  Blocks the entry cannot reach take part too, so a
def in one still reaches the uses it flows to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cfg.basic_block import BasicBlock
from repro.cfg.dataflow import FORWARD, DataflowProblem, DataflowSolution, solve_dataflow
from repro.cfg.graph import ControlFlowGraph
from repro.isa.instruction import Instruction
from repro.isa.registers import Predicate

#: A sliced resource: ``("R", index)`` for a register, ``("B", index)`` for a
#: virtual barrier register.
Resource = Tuple[str, int]

#: A def reaching a program point: its offset and the predicate keys of the
#: later defs of its resource on the path.
Reaching = Tuple[int, int]

#: Resource -> the defs of it that reach one program point.
SliceState = Dict[Resource, FrozenSet[Reaching]]

#: Resource -> (offset, the defs of the resource that reach the point after
#: it) for each def of the resource in one block, in block order.
BlockHistory = Dict[Resource, List[Tuple[int, FrozenSet[Reaching]]]]

#: Predicate keys are bits: ``Pn`` is bit ``2n``, ``!Pn`` bit ``2n + 1`` and
#: the unconditional guard ``_`` bit 16.
_UNCONDITIONAL = 1 << 16
#: The ``Pn`` bits, which pick out the predicates a key set holds both ways.
_POSITIVE = 0x5555


@dataclass(frozen=True)
class DefSite:
    """One immediate dependency source found by the slicer."""

    offset: int
    instruction: Instruction
    resource: Resource
    #: Guard predicate of the def instruction.
    predicate: Predicate

    @property
    def opcode(self) -> str:
        return self.instruction.opcode


@dataclass
class ImmediateDependencies:
    """All immediate dependency sources of one use instruction."""

    use_offset: int
    use_instruction: Instruction
    #: Resource -> def sites that may have produced the value read.
    defs: Dict[Resource, List[DefSite]] = field(default_factory=dict)

    def all_sites(self) -> List[DefSite]:
        sites: List[DefSite] = []
        seen: Set[Tuple[int, Resource]] = set()
        for resource_sites in self.defs.values():
            for site in resource_sites:
                key = (site.offset, site.resource)
                if key not in seen:
                    seen.add(key)
                    sites.append(site)
        return sites

    def source_offsets(self) -> List[int]:
        return sorted({site.offset for site in self.all_sites()})

    def __bool__(self) -> bool:
        return any(self.defs.values())


def _predicate_key(predicate: Predicate) -> int:
    if predicate.is_true_predicate:
        return _UNCONDITIONAL
    return 1 << (2 * predicate.index + predicate.negated)


def _covers_every_guard(keys: int) -> bool:
    """Whether the predicate union ``keys`` is ``_``: ``{p_i} ∪ {!p_i} = {_}``."""
    return bool(keys & _UNCONDITIONAL or keys & (keys >> 1) & _POSITIVE)


def _predicate_union_covers(keys: int, use_key: int) -> bool:
    """Whether the predicate union ``keys`` contains the use's guard ``use_key``.

    Per the paper, ``P`` contains ``p'`` iff ``p' in P`` or ``_ in P``, and
    ``{p_i} ∪ {!p_i} = {_}``.
    """
    return bool(keys & use_key) or _covers_every_guard(keys)


def _resources_defined(instruction: Instruction) -> Set[Resource]:
    resources: Set[Resource] = set()
    for register in instruction.defined_registers:
        resources.add(("R", register.index))
    for barrier in instruction.defined_barriers:
        resources.add(("B", barrier.index))
    return resources


def _resources_used(instruction: Instruction) -> Set[Resource]:
    resources: Set[Resource] = set()
    for register in instruction.used_registers:
        resources.add(("R", register.index))
    for barrier in instruction.waited_barriers:
        resources.add(("B", barrier.index))
    return resources


class SliceProblem(DataflowProblem):
    """Forward may-analysis of the defs that reach each point, with covers."""

    direction = FORWARD

    def __init__(self) -> None:
        #: Block index -> (offset, guard key, resources) of each def in it.
        self._defs: Dict[int, List[Tuple[int, int, Tuple[Resource, ...]]]] = {}

    def boundary_value(self) -> SliceState:
        return {}

    def initial_value(self) -> SliceState:
        return {}

    def meet(self, values: Iterable[SliceState]) -> SliceState:
        merged: SliceState = {}
        for value in values:
            for resource, reaching in value.items():
                known = merged.get(resource)
                merged[resource] = reaching if known is None else known | reaching
        return merged

    def transfer(self, block: BasicBlock, value: SliceState) -> SliceState:
        return self.walk(block, value)

    def walk(
        self, block: BasicBlock, value: SliceState, history: Optional[BlockHistory] = None
    ) -> SliceState:
        """``value`` pushed over the defs of ``block``; ``history``, if
        given, collects the value of each resource after each of its defs."""
        state = dict(value)
        for offset, key, resources in self._block_defs(block):
            for resource in resources:
                reaching = {(offset, 0)}
                if key != _UNCONDITIONAL:
                    for def_offset, keys in state.get(resource, ()):
                        keys |= key
                        if not _covers_every_guard(keys):
                            reaching.add((def_offset, keys))
                state[resource] = frozen = frozenset(reaching)
                if history is not None:
                    history.setdefault(resource, []).append((offset, frozen))
        return state

    def _block_defs(self, block: BasicBlock) -> List[Tuple[int, int, Tuple[Resource, ...]]]:
        defs = self._defs.get(block.index)
        if defs is None:
            defs = self._defs[block.index] = [
                (
                    instruction.offset,
                    _predicate_key(instruction.predicate),
                    tuple(resources),
                )
                for instruction in block.instructions
                if (resources := _resources_defined(instruction))
            ]
        return defs


class BackwardSlicer:
    """Intra-function backward slicer over one control flow graph."""

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self._problem = SliceProblem()
        self._solution: Optional[DataflowSolution] = None
        self._histories: Dict[int, BlockHistory] = {}
        self._cache: Dict[int, ImmediateDependencies] = {}

    # ------------------------------------------------------------------
    def slice_instruction(self, use_offset: int) -> ImmediateDependencies:
        """Immediate dependency sources of the instruction at ``use_offset``."""
        if use_offset in self._cache:
            return self._cache[use_offset]
        cfg = self.cfg
        use_instruction = cfg.instruction_at(use_offset)
        dependencies = ImmediateDependencies(
            use_offset=use_offset, use_instruction=use_instruction
        )
        block = cfg.block_containing(use_offset)
        use_key = _predicate_key(use_instruction.predicate)
        for resource in sorted(_resources_used(use_instruction)):
            offsets = {
                offset
                for offset, keys in self._reaching(block, use_offset, resource)
                if not _predicate_union_covers(keys, use_key)
            }
            sites = []
            for offset in sorted(offsets):
                instruction = cfg.instruction_at(offset)
                sites.append(DefSite(offset, instruction, resource, instruction.predicate))
            if sites:
                dependencies.defs[resource] = sites
        self._cache[use_offset] = dependencies
        return dependencies

    def _reaching(
        self, block: BasicBlock, use_offset: int, resource: Resource
    ) -> FrozenSet[Reaching]:
        """The defs of ``resource`` that reach ``use_offset`` in ``block``."""
        if self._solution is None:
            self._solution = solve_dataflow(self.cfg, self._problem)
        entry = self._solution.value_in(block.index)
        history = self._histories.get(block.index)
        if history is None:
            # Filled before it is stored: a slicer is shared by every
            # analysis of its function, on any thread.
            history = {}
            self._problem.walk(block, entry, history)
            self._histories[block.index] = history
        reaching = entry.get(resource, frozenset())
        for offset, after in history.get(resource, ()):
            if offset >= use_offset:
                break
            reaching = after
        return reaching
