"""The instruction blamer (Section 4 of the paper).

Memory dependency, execution dependency and synchronization stalls are
*caused by source instructions* rather than by the instructions observed to
stall.  The blamer attributes those stalls backwards:

1. :mod:`repro.blame.slicing` — backward slicing over the control flow graph
   tracking regular registers, the six virtual barrier registers and
   predicates (a later def hides an earlier one only once the union of the
   later defs' predicates covers the use predicate);
2. :mod:`repro.blame.graph` — build an instruction dependency graph whose
   nodes carry measured stalls and whose edges are def-use relations;
3. :mod:`repro.blame.pruning` — prune "cold" edges with the three heuristics
   (opcode-based, dominator-based, instruction-latency-based);
4. :mod:`repro.blame.attribution` — apportion each node's stalls over its
   remaining incoming edges using issue-sample and path-length ratios
   (Equation 1) and classify the result into the fine-grained stall reasons
   of Figure 5;
5. :mod:`repro.blame.coverage` — the single-dependency coverage metric of
   Figure 7.
"""

from repro.blame.slicing import BackwardSlicer, DefSite, ImmediateDependencies
from repro.blame.graph import (
    DependencyEdge,
    DependencyGraph,
    DependencyNode,
    build_dependency_graph,
)
from repro.blame.pruning import PruningStatistics, prune_cold_edges
from repro.blame.attribution import BlamedEdge, BlameResult, InstructionBlamer
from repro.blame.classification import classify_source
from repro.blame.coverage import single_dependency_coverage

__all__ = [
    "BackwardSlicer",
    "BlameResult",
    "BlamedEdge",
    "DefSite",
    "DependencyEdge",
    "DependencyGraph",
    "DependencyNode",
    "ImmediateDependencies",
    "InstructionBlamer",
    "PruningStatistics",
    "build_dependency_graph",
    "classify_source",
    "prune_cold_edges",
    "single_dependency_coverage",
]
