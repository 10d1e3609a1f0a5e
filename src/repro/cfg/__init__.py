"""Control-flow analysis (nvdisasm + Dyninst substitute).

GPA's static analyzer feeds nvdisasm's raw control flow graphs, with super
blocks split into basic blocks, into Dyninst to recover loop nests.  This
package provides the equivalent functionality for our SASS-like ISA:

* :mod:`repro.cfg.basic_block` — basic blocks over instruction lists,
* :mod:`repro.cfg.graph` — CFG construction with superblock splitting,
* :mod:`repro.cfg.dominators` — dominator tree computation,
* :mod:`repro.cfg.loops` — natural loop detection and loop-nest trees,
* :mod:`repro.cfg.dataflow` — the worklist dataflow solver and
  post-dominators, shared by the blamer's slicer and the static lint.
"""

from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.cfg.dominators import DominatorTree, compute_dominator_tree
from repro.cfg.loops import Loop, LoopNestTree, find_loops

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "DominatorTree",
    "Loop",
    "LoopNestTree",
    "build_cfg",
    "compute_dominator_tree",
    "find_loops",
]
