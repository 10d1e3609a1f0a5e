"""Reusable SASS-level code patterns shared by the synthetic benchmarks.

Each helper emits a small idiom into a :class:`~repro.cubin.builder.KernelBuilder`
and mirrors a source-level construct the paper's case studies talk about:
address setup from thread/block indices, a global load followed (closely or
not) by its use, the double-constant multiply of the hotspot example, the
slow math sequences targeted by Fast Math, the emulated integer division
targeted by Strength Reduction, and shared-memory reductions guarded by
block barriers.
"""

from __future__ import annotations

from repro.cubin.builder import KernelBuilder, imm, r


def standard_prologue(k: KernelBuilder, addr_reg: int = 2, line: int = 1) -> None:
    """Thread-index and global-address setup shared by most kernels.

    Leaves a 64-bit global address in ``(addr_reg, addr_reg + 1)`` and the
    linear thread index in ``R0``.
    """
    k.at_line(line)
    k.s2r(0, "SR_TID.X")
    k.s2r(1, "SR_CTAID.X")
    k.mov_imm(addr_reg + 1, 0)
    k.imad(0, 1, imm(256), 0)
    k.imad(addr_reg, 0, imm(4), addr_reg + 1, wide=True)


def global_load_use(
    k: KernelBuilder,
    addr_reg: int,
    data_reg: int,
    acc_reg: int,
    load_line: int,
    use_line: int,
    gap_ops: int = 0,
    gap_base_reg: int = 20,
    offset: int = 0,
) -> None:
    """A global load followed by its use, optionally separated by independent work.

    ``gap_ops`` independent FFMAs on unrelated registers are emitted between
    the load and the use; with ``gap_ops=0`` the def-use distance is 1, the
    pattern the b+tree / pathfinder case studies suffer from and Code
    Reordering widens.
    """
    k.at_line(load_line)
    k.ldg(data_reg, addr_reg, offset=offset)
    for index in range(gap_ops):
        register = gap_base_reg + (index % 4)
        k.at_line(load_line)
        k.ffma(register, register, register, register)
    k.at_line(use_line)
    k.ffma(acc_reg, data_reg, data_reg, acc_reg)


def double_constant_multiply(
    k: KernelBuilder,
    value_reg: int,
    out_reg: int,
    line: int,
    scratch_reg: int = 30,
    optimized: bool = False,
) -> None:
    """The hotspot pattern: a float value multiplied by a double constant.

    Baseline: the compiler promotes the 32-bit value to 64 bits, multiplies in
    double precision and demotes the result (F2F / DMUL / F2F), a chain of
    long-latency conversions.  Optimized (Strength Reduction applied at the
    source level by typing the constant ``2.0f``): a single FMUL.
    """
    k.at_line(line)
    if optimized:
        k.fmul(out_reg, value_reg, imm(2.0))
        return
    k.f2f(scratch_reg, value_reg, modifiers=("F64", "F32"))
    k.dmul(scratch_reg + 2, scratch_reg, imm(2.0, is_double=True))
    k.f2f(out_reg, scratch_reg + 2, modifiers=("F32", "F64"))


def slow_math(
    k: KernelBuilder,
    src_reg: int,
    out_reg: int,
    line: int,
    function: str = "exp",
    fast: bool = False,
    scratch_reg: int = 34,
) -> None:
    """A CUDA math routine (inlined) — slow accurate form vs fast-math form.

    Baseline: the accurate sequence uses range reduction, several SFU
    operations and fix-up multiplies/FMAs with serial dependencies.
    Fast math (``--use_fast_math``): a single SFU operation plus one multiply.
    """
    with k.inlined(f"__internal_accurate_{function}", call_site_line=line):
        k.at_line(line)
        if fast:
            k.mufu(out_reg, src_reg, function="EX2")
            k.fmul(out_reg, out_reg, imm(1.4426950408889634))
            return
        k.emit("RRO", [r(scratch_reg)], [r(src_reg)], modifiers=("EX2",))
        k.mufu(scratch_reg + 1, scratch_reg, function="EX2")
        k.ffma(scratch_reg + 2, scratch_reg + 1, scratch_reg + 1, scratch_reg + 1)
        k.mufu(scratch_reg + 3, scratch_reg + 2, function="RCP")
        k.fmul(scratch_reg + 4, scratch_reg + 3, scratch_reg + 1)
        k.dmul(scratch_reg + 6, scratch_reg + 4, imm(0.6931471805599453, is_double=True))
        k.f2f(out_reg, scratch_reg + 6, modifiers=("F32", "F64"))


def integer_division(
    k: KernelBuilder,
    numerator_reg: int,
    denominator_reg: int,
    out_reg: int,
    line: int,
    optimized: bool = False,
    scratch_reg: int = 40,
) -> None:
    """Index arithmetic with an integer division.

    Baseline: the emulated integer division (a very long latency sequence,
    modelled as a single ``IDIV``).  Optimized (Strength Reduction): multiply
    by the precomputed reciprocal and shift.
    """
    k.at_line(line)
    if optimized:
        k.imad(scratch_reg, numerator_reg, denominator_reg, 0, wide=True)
        k.shl(out_reg, scratch_reg, imm(1))
        return
    k.idiv(out_reg, numerator_reg, denominator_reg)


def store_result(k: KernelBuilder, addr_reg: int, value_reg: int, line: int) -> None:
    """Store the accumulated result back to global memory and exit."""
    k.at_line(line)
    k.stg(addr_reg, value_reg)
    k.exit()
