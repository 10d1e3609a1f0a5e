"""Parametrized kernel families.

Most of the Table 3 benchmarks fall into a handful of structural families —
a loop whose load feeds a nearby use, a reduction with imbalanced warps
meeting at a barrier, math-heavy bodies, or kernels whose only problem is the
launch configuration.  Each family builder below produces a complete
:class:`~repro.workloads.base.KernelSetup` from a small set of parameters so
individual benchmark modules only describe what makes them different:
trip counts, imbalance, def-use distances, launch shapes.
"""

from __future__ import annotations

from typing import Optional

from repro.cubin.builder import CubinBuilder, KernelBuilder, imm, p
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import TripCount, WorkloadSpec
from repro.workloads.base import KernelSetup
from repro.workloads.patterns import (
    global_load_use,
    slow_math,
    standard_prologue,
    store_result,
)

#: Source line numbers used consistently by the family builders so workload
#: specs and tests can refer to them symbolically.
PROLOGUE_LINE = 10
LOOP_LINE = 20
LOAD_LINE = 21
USE_LINE = 22
WORK_LINE = 23
SYNC_LINE = 25
MATH_LINE = 30
EPILOGUE_LINE = 40


def _loop_begin(k: KernelBuilder, counter_reg: int, line: int) -> None:
    """First statement of a loop body: advance the counter at the loop's line.

    Emitting this first pins the loop header's source line to ``line``, which
    is the key the workload specs use for trip counts.
    """
    k.at_line(line)
    k.iadd(counter_reg, counter_reg, imm(1))


def _loop_end(k: KernelBuilder, counter_reg: int, limit_reg: int, line: int) -> None:
    """Last statement of a loop body: refresh the back-edge predicate (P0)."""
    k.at_line(line)
    k.isetp(0, counter_reg, limit_reg, "LT")


# ----------------------------------------------------------------------
# Family 1: a loop whose global (or shared) load feeds a nearby use.
# Covers the Loop Unrolling and Code Reordering rows of Table 3.
# ----------------------------------------------------------------------
def build_load_use_loop_kernel(
    module: str,
    kernel: str,
    source_file: str,
    *,
    grid_blocks: int,
    threads_per_block: int,
    trip_count: TripCount,
    gap_ops: int = 0,
    tail_ops: int = 0,
    unroll_factor: int = 1,
    loads_per_iteration: int = 1,
    use_shared: bool = False,
    sync_in_loop: bool = False,
    split_address_registers: bool = False,
    registers_per_thread: Optional[int] = None,
    memory_latency_scale: float = 1.0,
    extra_work_ops: int = 0,
    seed: int = 2021,
) -> KernelSetup:
    """A loop of loads feeding nearby uses.

    ``gap_ops`` is the independent work placed *between* each load and its
    use and ``tail_ops`` the independent work placed *after* the use; a code
    reordering optimization moves work from the tail into the gap without
    changing the instruction count.  ``unroll_factor`` replicates the body,
    batching the loads ahead of their uses, and divides the trip count (Loop
    Unrolling).  ``sync_in_loop`` adds the barrier that limits reordering in
    the pathfinder/b+tree pattern, and ``split_address_registers`` computes
    the 64-bit address from two separately-defined registers (the bfs
    situation that lowers single-dependency coverage).
    """
    builder = CubinBuilder(module_name=module)
    k = builder.kernel(kernel, source_file=source_file,
                       registers_per_thread=registers_per_thread)
    standard_prologue(k, addr_reg=2, line=PROLOGUE_LINE)
    k.mov_imm(8, 0)          # loop counter
    k.mov_imm(9, 1 << 20)    # loop limit (actual trips come from the workload spec)
    k.mov_imm(12, 0)         # accumulator
    if use_shared:
        k.mov_imm(16, 0)     # shared-memory address
    k.at_line(LOOP_LINE)
    k.isetp(0, 8, 9, "LT")
    loads = max(1, loads_per_iteration)
    copies = max(1, unroll_factor)
    with k.loop(f"{kernel}_loop", predicate=p(0)):
        _loop_begin(k, 8, LOOP_LINE)
        if copies > 1:
            # An unrolled body: the compiler (or the programmer) batches the
            # loads of all unrolled iterations first, then their uses, so the
            # loads overlap each other's latency.
            for copy in range(copies):
                if split_address_registers:
                    k.at_line(LOAD_LINE)
                    k.iadd(2, 2, imm(4))
                    k.iadd(3, 3, imm(0))
                for load_index in range(loads):
                    data_reg = 40 + (copy * loads + load_index) % 32
                    k.at_line(LOAD_LINE)
                    if use_shared:
                        k.lds(data_reg, 16, offset=4 * load_index)
                    else:
                        k.ldg(data_reg, 2, offset=4 * (copy * loads + load_index))
            for gap in range(gap_ops):
                register = 20 + (gap % 4)
                k.at_line(LOAD_LINE)
                k.ffma(register, register, register, register)
            for copy in range(copies):
                for load_index in range(loads):
                    data_reg = 40 + (copy * loads + load_index) % 32
                    k.at_line(USE_LINE)
                    k.ffma(12, data_reg, data_reg, 12)
                for _ in range(extra_work_ops):
                    k.at_line(WORK_LINE)
                    k.ffma(24, 24, 24, 24)
            for tail in range(tail_ops):
                register = 20 + (tail % 4)
                k.at_line(WORK_LINE)
                k.ffma(register, register, register, register)
            if sync_in_loop:
                k.at_line(SYNC_LINE)
                k.bar_sync()
        else:
            if split_address_registers:
                k.at_line(LOAD_LINE)
                k.iadd(2, 2, imm(4))
                k.iadd(3, 3, imm(0))
            for load_index in range(loads):
                data_reg = 13 + load_index
                if use_shared:
                    k.at_line(LOAD_LINE)
                    k.lds(data_reg, 16, offset=4 * load_index)
                    for gap in range(gap_ops):
                        register = 20 + (gap % 4)
                        k.ffma(register, register, register, register)
                    k.at_line(USE_LINE)
                    k.ffma(12, data_reg, data_reg, 12)
                else:
                    global_load_use(
                        k,
                        addr_reg=2,
                        data_reg=data_reg,
                        acc_reg=12,
                        load_line=LOAD_LINE,
                        use_line=USE_LINE,
                        gap_ops=gap_ops,
                        offset=4 * load_index,
                    )
            for _ in range(extra_work_ops):
                k.at_line(WORK_LINE)
                k.ffma(24, 24, 24, 24)
            for tail in range(tail_ops):
                register = 20 + (tail % 4)
                k.at_line(WORK_LINE)
                k.ffma(register, register, register, register)
            if sync_in_loop:
                k.at_line(SYNC_LINE)
                k.bar_sync()
        _loop_end(k, 8, 9, LOOP_LINE)
    store_result(k, 2, 12, EPILOGUE_LINE)
    builder.add_function(k.build())

    effective_trip: TripCount
    if isinstance(trip_count, tuple):
        if unroll_factor > 1:
            effective_trip = tuple(max(1, count // unroll_factor) for count in trip_count)
        else:
            effective_trip = trip_count
    else:
        effective_trip = max(1, int(trip_count) // max(1, unroll_factor))

    workload = WorkloadSpec(
        name=module,
        loop_trip_counts={LOOP_LINE: effective_trip},
        memory_latency_scale=memory_latency_scale,
        seed=seed,
    )
    config = LaunchConfig(grid_blocks=grid_blocks, threads_per_block=threads_per_block)
    return KernelSetup(cubin=builder.build(), kernel=kernel, config=config, workload=workload)


# ----------------------------------------------------------------------
# Family 2: warps of a block do imbalanced work and meet at barriers.
# Covers the Warp Balance rows of Table 3.
# ----------------------------------------------------------------------
def build_barrier_imbalance_kernel(
    module: str,
    kernel: str,
    source_file: str,
    *,
    grid_blocks: int,
    threads_per_block: int,
    heavy_trip_count: int,
    light_trip_count: int,
    heavy_warp_fraction: float = 0.25,
    rounds: int = 4,
    work_ops_per_iteration: int = 3,
    balanced: bool = False,
    seed: int = 2021,
) -> KernelSetup:
    """Work loops of different length per warp, separated by __syncthreads.

    The imbalance makes fast warps wait at the barrier (synchronization
    stalls).  ``balanced=True`` models the Warp Balance optimization: every
    warp gets the average amount of work.
    """
    builder = CubinBuilder(module_name=module)
    k = builder.kernel(kernel, source_file=source_file)
    standard_prologue(k, addr_reg=2, line=PROLOGUE_LINE)
    k.mov_imm(12, 0)
    k.mov_imm(16, 0)
    for round_index in range(rounds):
        work_line = LOOP_LINE + round_index * 10
        sync_line = SYNC_LINE + round_index * 10
        k.at_line(work_line)
        k.mov_imm(8, 0)
        k.mov_imm(9, 1 << 20)
        k.isetp(0, 8, 9, "LT")
        with k.loop(f"{kernel}_work_{round_index}", predicate=p(0)):
            _loop_begin(k, 8, work_line)
            k.at_line(work_line + 1)
            k.lds(13, 16, offset=4 * round_index)
            k.ffma(12, 13, 13, 12)
            for op in range(work_ops_per_iteration):
                register = 20 + (op % 4)
                k.ffma(register, register, register, register)
            _loop_end(k, 8, 9, work_line)
        k.at_line(sync_line)
        k.bar_sync()
    store_result(k, 2, 12, EPILOGUE_LINE)
    builder.add_function(k.build())

    average = max(1, int(round(heavy_trip_count * heavy_warp_fraction
                                + light_trip_count * (1.0 - heavy_warp_fraction))))

    period = max(1, int(round(1.0 / max(heavy_warp_fraction, 1e-6))))
    trip: TripCount = (
        average if balanced else (heavy_trip_count,) + (light_trip_count,) * (period - 1)
    )
    trip_counts = {LOOP_LINE + round_index * 10: trip for round_index in range(rounds)}
    workload = WorkloadSpec(name=module, loop_trip_counts=trip_counts, seed=seed)
    config = LaunchConfig(grid_blocks=grid_blocks, threads_per_block=threads_per_block)
    return KernelSetup(cubin=builder.build(), kernel=kernel, config=config, workload=workload)


# ----------------------------------------------------------------------
# Family 3: math-heavy bodies (Fast Math rows).
# ----------------------------------------------------------------------
def build_math_kernel(
    module: str,
    kernel: str,
    source_file: str,
    *,
    grid_blocks: int,
    threads_per_block: int,
    trip_count: TripCount,
    math_calls_per_iteration: int = 2,
    math_functions: tuple = ("exp", "sqrt"),
    fast_math: bool = False,
    loads_per_iteration: int = 1,
    extra_body_copies: int = 1,
    gap_ops: int = 0,
    registers_per_thread: Optional[int] = None,
    seed: int = 2021,
) -> KernelSetup:
    """A loop dominated by (inlined) math routines on loaded values.

    ``fast_math=False`` emits the accurate multi-instruction sequences;
    ``fast_math=True`` models ``--use_fast_math``.  ``extra_body_copies``
    replicates the body to inflate the code footprint (the myocyte kernel is
    thousands of lines long, which also pressures the instruction cache).
    """
    builder = CubinBuilder(module_name=module)
    k = builder.kernel(kernel, source_file=source_file,
                       registers_per_thread=registers_per_thread)
    standard_prologue(k, addr_reg=2, line=PROLOGUE_LINE)
    k.mov_imm(8, 0)
    k.mov_imm(9, 1 << 20)
    k.mov_imm(12, 0)
    k.at_line(LOOP_LINE)
    k.isetp(0, 8, 9, "LT")
    with k.loop(f"{kernel}_loop", predicate=p(0)):
        _loop_begin(k, 8, LOOP_LINE)
        for copy in range(max(1, extra_body_copies)):
            for load_index in range(max(1, loads_per_iteration)):
                k.at_line(LOAD_LINE + copy)
                k.ldg(13, 2, offset=4 * load_index)
                for gap in range(gap_ops):
                    register = 20 + (gap % 4)
                    k.ffma(register, register, register, register)
                k.at_line(USE_LINE + copy)
                k.fadd(14, 13, 12)
            for call_index in range(math_calls_per_iteration):
                function = math_functions[call_index % len(math_functions)]
                slow_math(
                    k,
                    src_reg=14,
                    out_reg=15,
                    line=MATH_LINE + copy * 10 + call_index,
                    function=function,
                    fast=fast_math,
                )
                k.at_line(MATH_LINE + copy * 10 + call_index)
                k.ffma(12, 15, 15, 12)
        _loop_end(k, 8, 9, LOOP_LINE)
    store_result(k, 2, 12, EPILOGUE_LINE)
    builder.add_function(k.build())

    workload = WorkloadSpec(
        name=module, loop_trip_counts={LOOP_LINE: trip_count}, seed=seed
    )
    config = LaunchConfig(grid_blocks=grid_blocks, threads_per_block=threads_per_block)
    return KernelSetup(cubin=builder.build(), kernel=kernel, config=config, workload=workload)


# ----------------------------------------------------------------------
# Family 4: kernels whose problem is the launch configuration.
# Covers Block Increase and Thread Increase rows.
# ----------------------------------------------------------------------
def build_parallelism_kernel(
    module: str,
    kernel: str,
    source_file: str,
    *,
    grid_blocks: int,
    threads_per_block: int,
    trip_count: TripCount,
    loads_per_iteration: int = 1,
    work_ops_per_iteration: int = 4,
    registers_per_thread: Optional[int] = None,
    seed: int = 2021,
) -> KernelSetup:
    """A well-formed compute loop whose launch configuration underuses the GPU.

    Used for the gaussian (tiny blocks), particlefilter / streamcluster /
    PeleC (too few blocks) rows: the body is unremarkable, the speedup comes
    from changing ``grid_blocks`` / ``threads_per_block`` / the trip count.
    """
    builder = CubinBuilder(module_name=module)
    k = builder.kernel(kernel, source_file=source_file,
                       registers_per_thread=registers_per_thread)
    standard_prologue(k, addr_reg=2, line=PROLOGUE_LINE)
    k.mov_imm(8, 0)
    k.mov_imm(9, 1 << 20)
    k.mov_imm(12, 0)
    k.at_line(LOOP_LINE)
    k.isetp(0, 8, 9, "LT")
    with k.loop(f"{kernel}_loop", predicate=p(0)):
        _loop_begin(k, 8, LOOP_LINE)
        for load_index in range(max(1, loads_per_iteration)):
            k.at_line(LOAD_LINE)
            k.ldg(13 + load_index, 2, offset=4 * load_index)
        for op in range(work_ops_per_iteration):
            register = 20 + (op % 4)
            k.at_line(WORK_LINE)
            k.ffma(register, register, register, register)
        k.at_line(USE_LINE)
        k.ffma(12, 13, 13, 12)
        _loop_end(k, 8, 9, LOOP_LINE)
    store_result(k, 2, 12, EPILOGUE_LINE)
    builder.add_function(k.build())

    workload = WorkloadSpec(
        name=module, loop_trip_counts={LOOP_LINE: trip_count}, seed=seed
    )
    config = LaunchConfig(grid_blocks=grid_blocks, threads_per_block=threads_per_block)
    return KernelSetup(cubin=builder.build(), kernel=kernel, config=config, workload=workload)
