"""Optimizer framework: analysis context, hotspots, advice and the base class."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.machine import GpuArchitecture, VoltaV100
from repro.blame.attribution import BlamedEdge, BlameResult
from repro.cfg.loops import Loop
from repro.sampling.sample import InstructionKey, KernelProfile
from repro.structure.program import ProgramStructure, SourceLocation


class OptimizerCategory(enum.Enum):
    """Table 2's top-level optimizer taxonomy."""

    STALL_ELIMINATION = "stall elimination"
    LATENCY_HIDING = "latency hiding"
    PARALLEL = "parallel"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Hotspot:
    """One def/use hotspot reported under an optimizer (Figure 8)."""

    #: Where the blamed (def) instruction lives.
    source: SourceLocation
    #: Where the stalls were observed (the use).
    dest: SourceLocation
    #: Stall samples attributed along this def/use pair.
    stalls: float
    #: Fraction of the kernel's total samples.
    ratio: float
    #: Speedup if only this hotspot's stalls were removed.
    speedup: float
    #: Instructions between def and use on the shortest path.
    distance: Optional[int] = None

    def describe(self) -> str:
        lines = [
            f"Hot BLAME code, ratio {self.ratio * 100:.3f}%, "
            f"speedup {self.speedup:.3f}x, distance {self.distance if self.distance is not None else '?'}",
            f"  From {self.source.function} at {self.source.file or '<unknown>'}",
            f"    {self.source.describe()}",
            f"  To {self.dest.function} at {self.dest.file or '<unknown>'}",
            f"    {self.dest.describe()}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Full structured form (the ``describe`` strings are derivable)."""
        return {
            "source": self.source.to_dict(),
            "dest": self.dest.to_dict(),
            "stalls": self.stalls,
            "ratio": self.ratio,
            "speedup": self.speedup,
            "distance": self.distance,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Hotspot":
        return cls(
            source=SourceLocation.from_dict(payload["source"]),
            dest=SourceLocation.from_dict(payload["dest"]),
            stalls=payload["stalls"],
            ratio=payload["ratio"],
            speedup=payload["speedup"],
            distance=payload.get("distance"),
        )


@dataclass
class OptimizationAdvice:
    """The result of matching one optimizer against one kernel profile."""

    optimizer: str
    category: OptimizerCategory
    #: Samples matched (M for stall elimination, M_L for latency hiding).
    matched_samples: float
    #: matched_samples / total samples.
    ratio: float
    #: Estimated speedup from the corresponding estimator.
    estimated_speedup: float
    #: Whether the optimizer applies at all to this kernel.
    applicable: bool = True
    #: Optimization hints shown to the user (the numbered suggestions of
    #: Figure 8).
    suggestions: Tuple[str, ...] = ()
    #: Top def/use hotspots.
    hotspots: List[Hotspot] = field(default_factory=list)
    #: Optimizer-specific details (proposed launch configuration, per-loop
    #: breakdowns, ...), kept JSON-friendly for reports.
    details: Dict[str, object] = field(default_factory=dict)

    def __lt__(self, other: "OptimizationAdvice") -> bool:
        return self.estimated_speedup < other.estimated_speedup

    def to_dict(self) -> dict:
        """A lossless JSON-friendly form (inverse: :meth:`from_dict`).

        ``details`` is canonicalized to plain JSON types at dump time so a
        reloaded advice re-dumps to an identical dictionary (tuples an
        optimizer stored would otherwise reload as lists and break the
        fixed point).
        """
        from repro.api.schema import canonical_json

        return {
            "optimizer": self.optimizer,
            "category": self.category.value,
            "matched_samples": self.matched_samples,
            "ratio": self.ratio,
            "estimated_speedup": self.estimated_speedup,
            "applicable": self.applicable,
            "suggestions": list(self.suggestions),
            "details": canonical_json(self.details, context=f"{self.optimizer} details"),
            "hotspots": [hotspot.to_dict() for hotspot in self.hotspots],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OptimizationAdvice":
        return cls(
            optimizer=payload["optimizer"],
            category=OptimizerCategory(payload["category"]),
            matched_samples=payload["matched_samples"],
            ratio=payload["ratio"],
            estimated_speedup=payload["estimated_speedup"],
            applicable=payload.get("applicable", True),
            suggestions=tuple(payload.get("suggestions") or ()),
            hotspots=[Hotspot.from_dict(entry) for entry in payload.get("hotspots") or []],
            details=payload.get("details") or {},
        )


@dataclass
class AnalysisContext:
    """Everything an optimizer can look at when matching."""

    profile: KernelProfile
    structure: ProgramStructure
    blame: BlameResult
    architecture: GpuArchitecture = VoltaV100

    # ------------------------------------------------------------------
    # Kernel-level totals
    # ------------------------------------------------------------------
    @property
    def total_samples(self) -> int:
        return self.profile.total_samples

    @property
    def active_samples(self) -> int:
        return self.profile.active_samples

    @property
    def latency_samples(self) -> int:
        return self.profile.latency_samples

    @property
    def kernel_name(self) -> str:
        return self.profile.kernel

    # ------------------------------------------------------------------
    # Structure-aware sample aggregation
    # ------------------------------------------------------------------
    def location(self, key: InstructionKey) -> SourceLocation:
        return self.structure.location(key[0], key[1])

    def instruction(self, key: InstructionKey):
        return self.structure.function(key[0]).instruction_at(key[1])

    def innermost_loop(self, key: InstructionKey) -> Optional[Loop]:
        return self.structure.function(key[0]).loop_nest.innermost_loop_containing(key[1])

    def active_samples_in_function(self, function_name: str) -> int:
        """Active (issue) samples of all instructions in one function."""
        total = 0
        for (function, _offset), samples in self.profile.instructions.items():
            if function == function_name:
                total += samples.issue_samples
        return total

    def active_samples_in_loop(self, function_name: str, loop: Loop, nested: bool = True) -> int:
        """Active samples of the instructions inside a loop (optionally nested)."""
        function_structure = self.structure.function(function_name)
        loop_nest = function_structure.loop_nest
        loops = loop_nest.nested_loops(loop) if nested else [loop]
        offsets = set()
        for candidate in loops:
            for instruction in loop_nest.instructions_in_loop(candidate):
                offsets.add(instruction.offset)
        total = 0
        for offset in offsets:
            total += self.profile.issue_samples_at(function_name, offset)
        return total

    def same_loop(self, a: InstructionKey, b: InstructionKey) -> bool:
        """Whether two instructions of the same function share a loop."""
        if a[0] != b[0]:
            return False
        return self.structure.function(a[0]).loop_nest.same_loop(a[1], b[1])

    # ------------------------------------------------------------------
    # Hotspot construction
    # ------------------------------------------------------------------
    def build_hotspots(
        self, edges: Sequence[BlamedEdge], limit: int = 5
    ) -> List[Hotspot]:
        """Top def/use hotspots of a matched edge set, by attributed stalls."""
        total = max(self.total_samples, 1)
        ranked = sorted(edges, key=lambda edge: edge.stalls, reverse=True)[:limit]
        hotspots = []
        for edge in ranked:
            stalls = edge.stalls
            hotspots.append(
                Hotspot(
                    source=self.location(edge.source),
                    dest=self.location(edge.dest),
                    stalls=stalls,
                    ratio=stalls / total,
                    speedup=total / max(total - stalls, 1e-9),
                    distance=edge.distance,
                )
            )
        return hotspots


class Optimizer(abc.ABC):
    """Base class of all performance optimizers."""

    #: Human-readable optimizer name (used for ranking and reports).
    name: str = "optimizer"
    category: OptimizerCategory = OptimizerCategory.STALL_ELIMINATION
    #: One-line description of the inefficiency pattern matched.
    description: str = ""
    #: Actionable suggestions listed in the advice report.
    suggestions: Tuple[str, ...] = ()

    @abc.abstractmethod
    def match(self, context: AnalysisContext) -> OptimizationAdvice:
        """Match the optimizer against a kernel and estimate its speedup."""

    # ------------------------------------------------------------------
    def _advice(
        self,
        context: AnalysisContext,
        matched_samples: float,
        estimated_speedup: float,
        hotspots: Optional[List[Hotspot]] = None,
        applicable: bool = True,
        details: Optional[Dict[str, object]] = None,
    ) -> OptimizationAdvice:
        total = max(context.total_samples, 1)
        return OptimizationAdvice(
            optimizer=self.name,
            category=self.category,
            matched_samples=matched_samples,
            ratio=matched_samples / total,
            estimated_speedup=max(estimated_speedup, 1.0) if applicable else 1.0,
            applicable=applicable,
            suggestions=self.suggestions,
            hotspots=hotspots or [],
            details=details or {},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
