"""The instruction dependency graph.

Nodes are instructions annotated with their measured stalls and issue
samples; edges are def-use relations discovered by the backward slicer.  The
graph is built per kernel launch from the instructions that appear in the
profile, and only for the *dependent* stall reasons (memory dependency,
execution dependency, synchronization) that must be attributed backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.blame.slicing import BackwardSlicer
from repro.blame.slicing import Resource  # re-exported for typing convenience
from repro.isa.instruction import Instruction
from repro.sampling.sample import InstructionKey, KernelProfile
from repro.sampling.stall_reasons import StallReason
from repro.structure.program import ProgramStructure


@dataclass
class DependencyNode:
    """One instruction in the dependency graph."""

    function: str
    offset: int
    #: ``None`` only on graphs reloaded from :meth:`DependencyGraph.from_dict`
    #: (the instruction objects live in the binary and are not serialized).
    instruction: Optional[Instruction]
    #: Latency-sample stall counts by reason at this instruction.
    stalls: Dict[StallReason, int] = field(default_factory=dict)
    #: Active samples in which this instruction was issuing.
    issue_samples: int = 0

    @property
    def key(self) -> InstructionKey:
        return (self.function, self.offset)

    @property
    def total_stalls(self) -> int:
        return sum(self.stalls.values())

    def dependent_stalls(self) -> Dict[StallReason, int]:
        """The stall reasons that require backward attribution."""
        return {
            reason: count for reason, count in self.stalls.items() if reason.is_dependent
        }

    def self_stalls(self) -> Dict[StallReason, int]:
        """The stall reasons attributed to the instruction itself."""
        return {
            reason: count
            for reason, count in self.stalls.items()
            if not reason.is_dependent and reason.is_stall
        }


@dataclass
class DependencyEdge:
    """A def-use relation from a source (def) node to a destination (use) node."""

    source: InstructionKey
    dest: InstructionKey
    #: Resources (registers / barrier registers) carried by the edge.
    resources: FrozenSet[Resource]

    def __hash__(self) -> int:
        return hash((self.source, self.dest, self.resources))


@dataclass
class DependencyGraph:
    """The dependency graph of one kernel launch."""

    nodes: Dict[InstructionKey, DependencyNode] = field(default_factory=dict)
    edges: List[DependencyEdge] = field(default_factory=list)
    _in_edges: Dict[InstructionKey, List[DependencyEdge]] = field(default_factory=dict)
    _out_edges: Dict[InstructionKey, List[DependencyEdge]] = field(default_factory=dict)

    def add_node(self, node: DependencyNode) -> DependencyNode:
        existing = self.nodes.get(node.key)
        if existing is not None:
            return existing
        self.nodes[node.key] = node
        return node

    def add_edge(self, edge: DependencyEdge) -> None:
        self.edges.append(edge)
        self._in_edges.setdefault(edge.dest, []).append(edge)
        self._out_edges.setdefault(edge.source, []).append(edge)

    def remove_edges(self, removed: Iterable[DependencyEdge]) -> None:
        removed_set = {id(edge) for edge in removed}
        if not removed_set:
            return
        self.edges = [edge for edge in self.edges if id(edge) not in removed_set]
        for mapping in (self._in_edges, self._out_edges):
            for key in list(mapping):
                mapping[key] = [edge for edge in mapping[key] if id(edge) not in removed_set]

    def in_edges(self, key: InstructionKey) -> List[DependencyEdge]:
        return list(self._in_edges.get(key, []))

    def node(self, key: InstructionKey) -> DependencyNode:
        return self.nodes[key]

    def stalled_nodes(self) -> List[DependencyNode]:
        """Nodes that carry at least one stall sample."""
        return [node for node in self.nodes.values() if node.total_stalls > 0]

    def copy(self) -> "DependencyGraph":
        graph = DependencyGraph()
        for node in self.nodes.values():
            graph.add_node(
                DependencyNode(
                    function=node.function,
                    offset=node.offset,
                    instruction=node.instruction,
                    stalls=dict(node.stalls),
                    issue_samples=node.issue_samples,
                )
            )
        for edge in self.edges:
            graph.add_edge(
                DependencyEdge(source=edge.source, dest=edge.dest, resources=edge.resources)
            )
        return graph

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Serialization.  The dumped form is *detached*: nodes keep their
    # sample annotations and edges their resources, but the Instruction
    # objects (which live in the binary, not the graph) are not carried —
    # a reloaded graph supports topology and sample queries, not
    # re-attribution.  ``dump -> load -> dump`` is a fixed point.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "function": node.function,
                    "offset": node.offset,
                    "stalls": {reason.value: count for reason, count in node.stalls.items()},
                    "issue_samples": node.issue_samples,
                }
                for node in self.nodes.values()
            ],
            "edges": [
                {
                    "source": list(edge.source),
                    "dest": list(edge.dest),
                    "resources": [list(resource) for resource in sorted(edge.resources)],
                }
                for edge in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DependencyGraph":
        graph = cls()
        for entry in payload["nodes"]:
            graph.add_node(
                DependencyNode(
                    function=entry["function"],
                    offset=entry["offset"],
                    instruction=None,
                    stalls={
                        StallReason(reason): count
                        for reason, count in entry["stalls"].items()
                    },
                    issue_samples=entry["issue_samples"],
                )
            )
        for entry in payload["edges"]:
            graph.add_edge(
                DependencyEdge(
                    source=(entry["source"][0], entry["source"][1]),
                    dest=(entry["dest"][0], entry["dest"][1]),
                    resources=frozenset(
                        (resource[0], resource[1]) for resource in entry["resources"]
                    ),
                )
            )
        return graph


def build_dependency_graph(
    profile: KernelProfile,
    structure: ProgramStructure,
    slicers: Optional[Dict[str, BackwardSlicer]] = None,
) -> DependencyGraph:
    """Build the dependency graph for one kernel profile.

    A node is created for every instruction that appears in the profile.  For
    every node with dependent stalls, the backward slicer finds its immediate
    def sites and an edge is added from each def site to the node (def sites
    are added as nodes even when they carry no samples themselves).
    """
    graph = DependencyGraph()
    slicers = slicers if slicers is not None else {}

    def slicer_for(function_name: str) -> BackwardSlicer:
        if function_name not in slicers:
            slicers[function_name] = BackwardSlicer(structure.function(function_name).cfg)
        return slicers[function_name]

    # Create nodes for every profiled instruction.
    for (function_name, offset), samples in profile.instructions.items():
        if function_name not in structure.functions:
            continue
        try:
            instruction = structure.function(function_name).instruction_at(offset)
        except KeyError:
            continue
        graph.add_node(
            DependencyNode(
                function=function_name,
                offset=offset,
                instruction=instruction,
                stalls=dict(samples.stalls),
                issue_samples=samples.issue_samples,
            )
        )

    # Add def-use edges for nodes with dependent stalls.
    for node in list(graph.nodes.values()):
        if not node.dependent_stalls():
            continue
        slicer = slicer_for(node.function)
        dependencies = slicer.slice_instruction(node.offset)
        # Group def sites by source offset so one edge carries all resources.
        resources_by_source: Dict[int, Set[Resource]] = {}
        for site in dependencies.all_sites():
            resources_by_source.setdefault(site.offset, set()).add(site.resource)
        for source_offset, resources in sorted(resources_by_source.items()):
            if source_offset == node.offset:
                continue
            source_key = (node.function, source_offset)
            if source_key not in graph.nodes:
                source_instruction = structure.function(node.function).instruction_at(source_offset)
                source_samples = profile.samples_at(node.function, source_offset)
                graph.add_node(
                    DependencyNode(
                        function=node.function,
                        offset=source_offset,
                        instruction=source_instruction,
                        stalls=dict(source_samples.stalls) if source_samples else {},
                        issue_samples=source_samples.issue_samples if source_samples else 0,
                    )
                )
            graph.add_edge(
                DependencyEdge(
                    source=source_key, dest=node.key, resources=frozenset(resources)
                )
            )

    return graph
