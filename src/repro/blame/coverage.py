"""Single-dependency coverage (Section 6.3 and Figure 7).

A node of the instruction dependency graph is a *single dependency node* if
it has no incoming edge or each of its incoming edges represents a different
dependency (i.e. no two incoming edges carry the same fine-grained dependency
class — in that case every stall reason maps to exactly one edge and no
apportioning is needed).  Single-dependency coverage is the ratio of single
dependency nodes to all nodes.

The paper reports this metric before and after pruning cold edges: pruning
lifts most Rodinia benchmarks above 0.8; bfs (64-bit addresses split across
two registers defined separately) and nw (intricate, fully-unrolled control
flow) remain lower.
"""

from __future__ import annotations

from collections import Counter

from repro.blame.classification import classify_source
from repro.blame.graph import DependencyGraph
from repro.sampling.stall_reasons import StallReason


def _is_single_dependency(graph: DependencyGraph, key) -> bool:
    edges = graph.in_edges(key)
    if not edges:
        return True
    classes = []
    for edge in edges:
        source = graph.node(edge.source)
        instruction = source.instruction
        if instruction.info.is_load:
            reason = StallReason.MEMORY_DEPENDENCY
        elif instruction.info.is_synchronization:
            reason = StallReason.SYNCHRONIZATION
        else:
            reason = StallReason.EXECUTION_DEPENDENCY
        classes.append(classify_source(reason, instruction))
    counts = Counter(classes)
    return all(count == 1 for count in counts.values())


def single_dependency_coverage(graph: DependencyGraph, stalled_only: bool = True) -> float:
    """Fraction of (stalled) nodes whose incoming edges are all distinct dependencies."""
    nodes = graph.stalled_nodes() if stalled_only else list(graph.nodes.values())
    if not nodes:
        return 1.0
    single = sum(1 for node in nodes if _is_single_dependency(graph, node.key))
    return single / len(nodes)
