"""rodinia/myocyte — ``solver_2`` (Fast Math 1.19x / 1.13x, Function Split 1.02x / 1.03x).

The ODE solver body is enormous (the kernel inlines dozens of math-heavy
expressions), so it both spends time in high-precision math routines and
overflows the instruction cache.  The two optimizations target those two
problems separately:

* Fast Math replaces the accurate math sequences;
* Function Split moves part of the body into a separate (rarely executed)
  device function so the hot path fits in the instruction cache.
"""

from __future__ import annotations

from repro.workloads.base import BenchmarkCase, KernelSetup
from repro.workloads.families import build_math_kernel

KERNEL = "solver_2"
SOURCE = "solver_2.cu"


def _build(fast_math: bool = False, split: bool = False) -> KernelSetup:
    # The body is replicated many times to model the huge inlined solver
    # (thousands of source lines -> an instruction footprint well beyond the
    # 12 KiB instruction cache).  Splitting the function moves part of the
    # body into a cold helper so the hot path fits again.
    body_copies = 44 if not split else 24
    setup = build_math_kernel(
        "rodinia/myocyte",
        KERNEL,
        SOURCE,
        grid_blocks=160,
        threads_per_block=128,
        trip_count=6,
        math_calls_per_iteration=2,
        math_functions=("exp", "pow"),
        fast_math=fast_math,
        loads_per_iteration=1,
        extra_body_copies=body_copies,
        registers_per_thread=64,
    )
    return setup


def baseline() -> KernelSetup:
    return _build()


def fast_math() -> KernelSetup:
    return _build(fast_math=True)


def function_split() -> KernelSetup:
    return _build(split=True)


CASES = [
    BenchmarkCase(
        name="rodinia/myocyte",
        kernel=KERNEL,
        optimization="Fast Math",
        optimizer_name="GPUFastMathOptimizer",
        baseline=baseline,
        optimized=fast_math,
        paper_original_time="308.55ms",
        paper_achieved_speedup=1.19,
        paper_estimated_speedup=1.13,
    ),
    BenchmarkCase(
        name="rodinia/myocyte",
        kernel=KERNEL,
        optimization="Function Splitting",
        optimizer_name="GPUFunctionSplitOptimizer",
        baseline=baseline,
        optimized=function_split,
        paper_original_time="259.69ms",
        paper_achieved_speedup=1.02,
        paper_estimated_speedup=1.03,
    ),
]
