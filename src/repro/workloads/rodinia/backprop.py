"""rodinia/backprop — ``bpnn_layerforward_CUDA``.

The paper applies two optimizations to this kernel (Table 3):

* **Warp Balance** (achieved 1.18x, estimated 1.21x): warps of a block
  perform different numbers of reduction steps before each ``__syncthreads``,
  so fast warps stall at the barrier.
* **Strength Reduction** (achieved 1.21x, estimated 1.13x): the weight-update
  expression multiplies a 32-bit float by an untyped (double) constant, so
  the compiler emits F2F/DMUL conversion chains.

The synthetic kernel contains both inefficiencies; each optimized variant
fixes one of them.
"""

from __future__ import annotations

from repro.cubin.builder import CubinBuilder, imm, p
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec
from repro.workloads.base import BenchmarkCase, KernelSetup
from repro.workloads.patterns import double_constant_multiply, standard_prologue, store_result

KERNEL = "bpnn_layerforward_CUDA"
SOURCE = "backprop_cuda_kernel.cu"

_REDUCE_LINE = 120
_SYNC_LINE = 126
_WEIGHT_LINE = 131


def _build(balanced: bool = False, float_constant: bool = False) -> KernelSetup:
    builder = CubinBuilder(module_name="rodinia/backprop")
    k = builder.kernel(KERNEL, source_file=SOURCE)
    standard_prologue(k, addr_reg=2, line=110)
    k.mov_imm(12, 0)
    k.mov_imm(16, 0)

    # Two reduction rounds separated by barriers; per-warp work is imbalanced.
    for round_index in range(2):
        line = _REDUCE_LINE + round_index * 10
        k.at_line(line)
        k.mov_imm(8, 0)
        k.mov_imm(9, 1 << 20)
        k.isetp(0, 8, 9, "LT")
        with k.loop(f"reduce_{round_index}", predicate=p(0)):
            k.at_line(line)
            k.iadd(8, 8, imm(1))
            k.at_line(line + 1)
            k.lds(13, 16, offset=4 * round_index)
            k.ffma(12, 13, 13, 12)
            # The partial sum is scaled by an untyped (double) constant every
            # iteration -- the strength-reduction target.
            double_constant_multiply(k, value_reg=12, out_reg=22, line=line + 2,
                                     optimized=float_constant)
            k.at_line(line + 3)
            k.fadd(12, 22, 12)
            k.ffma(20, 20, 20, 20)
            k.ffma(21, 21, 21, 21)
            k.at_line(line)
            k.isetp(0, 8, 9, "LT")
        k.at_line(_SYNC_LINE + round_index * 10)
        k.bar_sync()

    # Weight update with the (double) constant multiply.
    double_constant_multiply(k, value_reg=12, out_reg=14, line=_WEIGHT_LINE,
                             optimized=float_constant)
    k.at_line(_WEIGHT_LINE + 1)
    k.fadd(12, 14, 12)
    double_constant_multiply(k, value_reg=12, out_reg=15, line=_WEIGHT_LINE + 2,
                             optimized=float_constant)
    k.at_line(_WEIGHT_LINE + 3)
    k.fadd(12, 15, 12)
    store_result(k, 2, 12, 140)
    builder.add_function(k.build())

    trip = 10 if balanced else (16, 8, 8, 8)
    workload = WorkloadSpec(
        name="rodinia/backprop",
        loop_trip_counts={_REDUCE_LINE: trip, _REDUCE_LINE + 10: trip},
    )
    config = LaunchConfig(grid_blocks=4096, threads_per_block=256)
    return KernelSetup(cubin=builder.build(), kernel=KERNEL, config=config, workload=workload)


def baseline() -> KernelSetup:
    return _build()


def warp_balanced() -> KernelSetup:
    return _build(balanced=True)


def strength_reduced() -> KernelSetup:
    return _build(float_constant=True)


CASES = [
    BenchmarkCase(
        name="rodinia/backprop",
        kernel=KERNEL,
        optimization="Warp Balance",
        optimizer_name="GPUWarpBalanceOptimizer",
        baseline=baseline,
        optimized=warp_balanced,
        paper_original_time="18.10us",
        paper_achieved_speedup=1.18,
        paper_estimated_speedup=1.21,
    ),
    BenchmarkCase(
        name="rodinia/backprop",
        kernel=KERNEL,
        optimization="Strength Reduction",
        optimizer_name="GPUStrengthReductionOptimizer",
        baseline=baseline,
        optimized=strength_reduced,
        paper_original_time="15.32us",
        paper_achieved_speedup=1.21,
        paper_estimated_speedup=1.13,
    ),
]
