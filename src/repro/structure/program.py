"""Program structure: functions, loops, inline stacks and line mappings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.cfg.dataflow import compute_post_dominators, reachable_blocks
from repro.cfg.dominators import DominatorTree, compute_dominator_tree
from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.cfg.loops import Loop, LoopNestTree, find_loops
from repro.cubin.binary import Cubin, Function
from repro.isa.instruction import Instruction

if TYPE_CHECKING:  # the blamer and the lint rules import this module
    from repro.blame.slicing import BackwardSlicer
    from repro.staticcheck.liveness import LivenessAnalysis
    from repro.staticcheck.rules import DivergentBranch


@dataclass(frozen=True)
class SourceLocation:
    """A fully-resolved source location for one instruction offset."""

    function: str
    offset: int
    file: Optional[str]
    line: Optional[int]
    #: Inline call stack, outermost first (empty when not inlined).
    inline_stack: Tuple[str, ...] = ()
    #: Innermost loop header line, if the instruction sits in a loop.
    loop_line: Optional[int] = None

    def describe(self) -> str:
        """Human-readable rendering used in advice reports (Figure 8 style)."""
        location = f"0x{self.offset:x}"
        if self.line is not None:
            location += f" at Line {self.line}"
        if self.loop_line is not None:
            location += f" in Loop at Line {self.loop_line}"
        if self.inline_stack:
            location += f" (inlined from {' <- '.join(self.inline_stack)})"
        return location

    def to_dict(self) -> dict:
        """A JSON-friendly description carrying every field."""
        return {
            "function": self.function,
            "offset": self.offset,
            "file": self.file,
            "line": self.line,
            "inline_stack": list(self.inline_stack),
            "loop_line": self.loop_line,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SourceLocation":
        return cls(
            function=payload["function"],
            offset=payload["offset"],
            file=payload.get("file"),
            line=payload.get("line"),
            inline_stack=tuple(payload.get("inline_stack") or ()),
            loop_line=payload.get("loop_line"),
        )


@dataclass(frozen=True)
class FunctionStructure:
    """Structure of one function: CFG, dominators, loop nest, line maps.

    Frozen and shared by every analysis of its binary, so the facts derived
    from it are memoized on it: :meth:`location` per offset, and once each
    the blamer's :attr:`slicer` and the lint's :attr:`liveness`,
    :attr:`divergent_branches`, :attr:`post_dominators` and
    :attr:`reachable`.
    """

    function: Function
    cfg: ControlFlowGraph
    dominator_tree: DominatorTree
    loop_nest: LoopNestTree
    _locations: Dict[int, SourceLocation] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.function.name

    @property
    def is_kernel(self) -> bool:
        return self.function.is_kernel

    def instruction_at(self, offset: int) -> Instruction:
        return self.cfg.instruction_at(offset)

    @cached_property
    def slicer(self) -> "BackwardSlicer":
        """The function's backward slicer: its dataflow solution, block
        histories and slices persist as long as the structure."""
        from repro.blame.slicing import BackwardSlicer

        return BackwardSlicer(self.cfg)

    @cached_property
    def liveness(self) -> "LivenessAnalysis":
        """Register liveness, live-range pressure and dead writes."""
        from repro.staticcheck.liveness import analyze_liveness

        return analyze_liveness(self.cfg)

    @cached_property
    def divergent_branches(self) -> Tuple["DivergentBranch", ...]:
        """Branches steered by thread-varying data, in offset order."""
        from repro.staticcheck.rules import find_divergent_branches

        return tuple(find_divergent_branches(self.cfg))

    @cached_property
    def post_dominators(self) -> Mapping[int, FrozenSet[int]]:
        """Post-dominator set of every block, against a virtual exit."""
        return MappingProxyType(compute_post_dominators(self.cfg))

    @cached_property
    def reachable(self) -> FrozenSet[int]:
        """Indices of the blocks reachable from the entry."""
        return reachable_blocks(self.cfg)

    def location(self, offset: int) -> SourceLocation:
        """Full source location (line, loop, inline stack) of an offset."""
        location = self._locations.get(offset)
        if location is None:
            instruction = self.cfg.instruction_at(offset)
            loop = self.loop_nest.innermost_loop_containing(offset)
            location = self._locations[offset] = SourceLocation(
                function=self.function.name,
                offset=offset,
                file=instruction.source_file or self.function.source_file,
                line=instruction.line,
                inline_stack=self.function.inline_stack_at(offset) or instruction.inline_stack,
                loop_line=loop.header_line if loop is not None else None,
            )
        return location

    def offsets_for_line(self, line: int) -> List[int]:
        """Instruction offsets mapped to a source line."""
        return [
            instruction.offset
            for instruction in self.cfg.instructions()
            if instruction.line == line
        ]

    def lines(self) -> List[int]:
        """All distinct source lines of the function, sorted."""
        lines = {
            instruction.line
            for instruction in self.cfg.instructions()
            if instruction.line is not None
        }
        return sorted(lines)

    def loops(self) -> List[Loop]:
        return list(self.loop_nest)

    def instruction_count(self) -> int:
        return len(self.function.instructions)


@dataclass(frozen=True)
class ProgramStructure:
    """Structure of every function in a binary, plus the architecture flag.

    Frozen, with ``functions`` a read-only copy of the mapping it is given.
    """

    arch_flag: str
    functions: Mapping[str, FunctionStructure] = field(default_factory=dict)
    module_name: str = "module.cubin"

    def __post_init__(self) -> None:
        object.__setattr__(self, "functions", MappingProxyType(dict(self.functions)))

    def function(self, name: str) -> FunctionStructure:
        try:
            return self.functions[name]
        except KeyError as exc:
            raise KeyError(
                f"no function {name!r}; available: {sorted(self.functions)}"
            ) from exc

    def kernels(self) -> List[FunctionStructure]:
        return [f for f in self.functions.values() if f.is_kernel]

    def device_functions(self) -> List[FunctionStructure]:
        return [f for f in self.functions.values() if not f.is_kernel]

    def location(self, function_name: str, offset: int) -> SourceLocation:
        return self.function(function_name).location(offset)

    # ------------------------------------------------------------------
    # Serialization: the paper's static analyzer writes a "program structure
    # file" that the dynamic analyzer later ingests together with profiles.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {"arch_flag": self.arch_flag, "module_name": self.module_name, "functions": {}}
        for name, structure in self.functions.items():
            function = structure.function
            payload["functions"][name] = {
                "visibility": function.visibility.value,
                "registers_per_thread": function.registers_per_thread,
                "shared_memory_bytes": function.shared_memory_bytes,
                "source_file": function.source_file,
                "instruction_count": structure.instruction_count(),
                "lines": structure.lines(),
                "loops": [
                    {
                        "index": loop.index,
                        "header_line": loop.header_line,
                        "header_offset": loop.header_offset,
                        "parent": loop.parent,
                        "blocks": sorted(loop.blocks),
                    }
                    for loop in structure.loops()
                ],
                "inline_ranges": [
                    [r.start_offset, r.end_offset, r.callee, r.call_site_line]
                    for r in function.inline_ranges
                ],
            }
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __len__(self) -> int:
        return len(self.functions)


def build_function_structure(function: Function) -> FunctionStructure:
    """Analyze one function: CFG, dominators, loop nest."""
    cfg = build_cfg(function.instructions)
    dominator_tree = compute_dominator_tree(cfg)
    loop_nest = find_loops(cfg, dominator_tree)
    return FunctionStructure(
        function=function,
        cfg=cfg,
        dominator_tree=dominator_tree,
        loop_nest=loop_nest,
    )


def build_program_structure(cubin: Cubin) -> ProgramStructure:
    """The structure of every function in a binary (the static analyzer's
    main entry).

    A :class:`Cubin` is frozen, so its structure is built once per object
    and memoized in its instance ``__dict__``: every analysis of the binary
    shares it and the facts memoized on it, and it lives as long as the
    binary.  No lock: racing first calls may each build, and ``setdefault``
    keeps the first stored structure for all of them.  A
    :func:`dataclasses.replace` copy of the binary builds its own.
    """
    structure = cubin.__dict__.get("_program_structure")
    if structure is None:
        structure = cubin.__dict__.setdefault("_program_structure", ProgramStructure(
            arch_flag=cubin.arch_flag,
            functions={
                name: build_function_structure(function)
                for name, function in cubin.functions.items()
            },
            module_name=cubin.module_name,
        ))
    return structure
