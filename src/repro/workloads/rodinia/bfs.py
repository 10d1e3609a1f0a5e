"""rodinia/bfs — ``Kernel`` (Loop Unrolling, achieved 1.14x, estimated 1.59x).

bfs is memory intensive and highly imbalanced: most threads execute fewer
than four iterations of the neighbour loop, so the benefit of unrolling is
limited to a small number of threads — the case the paper cites for GPA's
loop-unrolling overestimation (Section 6.2).  The 64-bit addresses of its
global loads are assembled from two separately-defined registers, which is
also why bfs has low single-dependency coverage in Figure 7.
"""

from __future__ import annotations

from repro.workloads.base import BenchmarkCase, KernelSetup
from repro.workloads.families import build_load_use_loop_kernel

KERNEL = "Kernel"
SOURCE = "bfs_kernel.cu"


#: Most warps visit very few neighbours; one warp in sixteen visits many.
_TRIPS = (48,) + (3,) * 15


def _build(unroll_factor: int = 1) -> KernelSetup:
    return build_load_use_loop_kernel(
        "rodinia/bfs",
        KERNEL,
        SOURCE,
        grid_blocks=2048,
        threads_per_block=256,
        trip_count=_TRIPS,
        gap_ops=0,
        unroll_factor=unroll_factor,
        loads_per_iteration=2,
        split_address_registers=True,
        memory_latency_scale=1.3,
        registers_per_thread=72,
    )


def baseline() -> KernelSetup:
    return _build()


def unrolled() -> KernelSetup:
    return _build(unroll_factor=4)


CASES = [
    BenchmarkCase(
        name="rodinia/bfs",
        kernel=KERNEL,
        optimization="Loop Unrolling",
        optimizer_name="GPULoopUnrollingOptimizer",
        baseline=baseline,
        optimized=unrolled,
        paper_original_time="578.28us",
        paper_achieved_speedup=1.14,
        paper_estimated_speedup=1.59,
    ),
]
