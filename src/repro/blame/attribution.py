"""Stall attribution (Section 4, "Attribute stalls" and Equation 1).

After pruning, a stalled node may still have several incoming edges.  The
stalls of the observed node ``j`` are apportioned over its dependency sources
``i`` using two heuristics:

1. the more *issued samples* a source has, the more stalls it is blamed for
   (ratio ``R_issue``);
2. the longer the (longest) control-flow path from the source to the stalled
   node, the fewer stalls it is blamed for (ratio ``R_path``).

.. math::

    S_i = \\frac{R^{path}_i R^{issue}_i}{\\sum_{k \\in incoming(j)} R^{path}_k R^{issue}_k} S_j

The blamer also classifies each attributed stall into the fine-grained
reasons of Figure 5 (by the source's opcode) and keeps per-edge records —
including the def/use source locations and their instruction distance — that
the optimizers and the report generator consume.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.machine import GpuArchitecture, VoltaV100
from repro.blame.classification import classify_source
from repro.blame.graph import DependencyGraph, build_dependency_graph
from repro.blame.pruning import PruningStatistics, edge_supports_reason, prune_cold_edges
from repro.sampling.sample import InstructionKey, KernelProfile
from repro.sampling.stall_reasons import DetailedStallReason, StallReason
from repro.structure.program import ProgramStructure, SourceLocation


@dataclass
class BlamedEdge:
    """Stalls attributed along one dependency edge (or to the node itself)."""

    #: The instruction blamed for the stalls (the def / source).
    source: InstructionKey
    #: The instruction where the stalls were observed (the use).
    dest: InstructionKey
    #: Coarse stall reason observed at the destination.
    reason: StallReason
    #: Fine-grained classification by the source's opcode (Figure 5).
    detail: DetailedStallReason
    #: Number of stall samples attributed along this edge.
    stalls: float
    #: Instructions on the shortest path from source to dest (the "distance"
    #: reported for hotspots in the advice report, Figure 8).
    distance: Optional[int] = None
    #: Issue samples of the source (the R_issue numerator).
    source_issue_samples: int = 0

    @property
    def is_self_blame(self) -> bool:
        return self.source == self.dest

    def to_dict(self) -> dict:
        return {
            "source": list(self.source),
            "dest": list(self.dest),
            "reason": self.reason.value,
            "detail": self.detail.value,
            "stalls": self.stalls,
            "distance": self.distance,
            "source_issue_samples": self.source_issue_samples,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BlamedEdge":
        return cls(
            source=(payload["source"][0], payload["source"][1]),
            dest=(payload["dest"][0], payload["dest"][1]),
            reason=StallReason(payload["reason"]),
            detail=DetailedStallReason(payload["detail"]),
            stalls=payload["stalls"],
            distance=payload.get("distance"),
            source_issue_samples=payload.get("source_issue_samples", 0),
        )


@dataclass
class BlameResult:
    """The output of the instruction blamer for one kernel launch."""

    kernel: str
    graph: DependencyGraph
    pruning: PruningStatistics
    #: Every attribution record.
    edges: List[BlamedEdge] = field(default_factory=list)
    #: Total stalls blamed on each source instruction, by detailed reason.
    blamed: Dict[InstructionKey, Dict[DetailedStallReason, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add(self, edge: BlamedEdge) -> None:
        self.edges.append(edge)
        per_source = self.blamed.setdefault(edge.source, defaultdict(float))
        per_source[edge.detail] += edge.stalls

    def blamed_stalls(self, key: InstructionKey) -> float:
        return sum(self.blamed.get(key, {}).values())

    def top_sources(self, count: int = 10) -> List[Tuple[InstructionKey, float]]:
        ranked = sorted(
            ((key, self.blamed_stalls(key)) for key in self.blamed),
            key=lambda item: item[1],
            reverse=True,
        )
        return ranked[:count]

    # ------------------------------------------------------------------
    # Serialization (results must cross process and service boundaries)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A lossless JSON-friendly form of the blame tree.

        The attribution records (:class:`BlamedEdge`) and the pruning
        statistics round-trip exactly; the dependency graph is dumped in its
        detached form (see :meth:`DependencyGraph.to_dict`).  The ``blamed``
        aggregate is *not* serialized: :meth:`from_dict` rebuilds it by
        replaying the edges through :meth:`add`, in order, so the float
        accumulation is reproduced exactly.
        """
        from repro.api.schema import API_SCHEMA_VERSION

        return {
            "schema_version": API_SCHEMA_VERSION,
            "kind": "blame_result",
            "kernel": self.kernel,
            "graph": self.graph.to_dict(),
            "pruning": self.pruning.to_dict(),
            "edges": [edge.to_dict() for edge in self.edges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BlameResult":
        from repro.api.schema import check_envelope

        payload = check_envelope(payload, "blame_result")
        result = cls(
            kernel=payload["kernel"],
            graph=DependencyGraph.from_dict(payload["graph"]),
            pruning=PruningStatistics.from_dict(payload["pruning"]),
        )
        for entry in payload["edges"]:
            result.add(BlamedEdge.from_dict(entry))
        return result


class InstructionBlamer:
    """Runs the full blame pipeline: slice, build graph, prune, apportion."""

    def __init__(self, architecture: Optional[GpuArchitecture] = None):
        self.architecture = architecture or VoltaV100

    # ------------------------------------------------------------------
    def blame(
        self,
        profile: KernelProfile,
        structure: ProgramStructure,
    ) -> BlameResult:
        """Attribute the stalls of one kernel profile to their sources."""
        graph = build_dependency_graph(profile, structure)
        pruning = prune_cold_edges(graph, structure, self.architecture)
        result = BlameResult(kernel=profile.kernel, graph=graph, pruning=pruning)

        for node in graph.stalled_nodes():
            cfg = structure.function(node.function).cfg

            # Dependent stalls: apportion over the surviving incoming edges
            # that can cause the reason (opcode rule re-checked per reason).
            for reason, count in node.dependent_stalls().items():
                candidates = [
                    edge
                    for edge in graph.in_edges(node.key)
                    if edge_supports_reason(graph.node(edge.source).instruction, reason)
                ]
                if not candidates:
                    # No source found: the stall stays where it was observed.
                    detail = (
                        DetailedStallReason.SYNCHRONIZATION
                        if reason is StallReason.SYNCHRONIZATION
                        else classify_source(reason, None)
                    )
                    result.add(
                        BlamedEdge(
                            source=node.key,
                            dest=node.key,
                            reason=reason,
                            detail=detail,
                            stalls=float(count),
                            distance=0,
                            source_issue_samples=node.issue_samples,
                        )
                    )
                    continue

                weights: List[float] = []
                details: List[DetailedStallReason] = []
                distances: List[Optional[int]] = []
                for edge in candidates:
                    source_node = graph.node(edge.source)
                    issue_ratio = float(max(source_node.issue_samples, 1))
                    longest = cfg.longest_path_instructions(edge.source[1], edge.dest[1])
                    if longest is None:
                        longest = cfg.shortest_path_instructions(edge.source[1], edge.dest[1])
                    path_length = (longest if longest is not None else 0) + 1
                    weights.append(issue_ratio / path_length)
                    details.append(classify_source(reason, source_node.instruction))
                    distances.append(
                        cfg.shortest_path_instructions(edge.source[1], edge.dest[1])
                    )
                total_weight = sum(weights) or 1.0
                for edge, weight, detail, distance in zip(candidates, weights, details, distances):
                    source_node = graph.node(edge.source)
                    result.add(
                        BlamedEdge(
                            source=edge.source,
                            dest=node.key,
                            reason=reason,
                            detail=detail,
                            stalls=count * weight / total_weight,
                            distance=distance,
                            source_issue_samples=source_node.issue_samples,
                        )
                    )

            # Self stalls (memory throttle, instruction fetch, ...) stay put.
            for reason, count in node.self_stalls().items():
                result.add(
                    BlamedEdge(
                        source=node.key,
                        dest=node.key,
                        reason=reason,
                        detail=DetailedStallReason.SELF,
                        stalls=float(count),
                        distance=0,
                        source_issue_samples=node.issue_samples,
                    )
                )

        return result
