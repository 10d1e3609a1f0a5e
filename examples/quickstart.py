#!/usr/bin/env python
"""Quickstart: author a kernel, profile it, and get GPA's advice.

This example walks the full pipeline of Figure 2 on a tiny hand-written
kernel: build a SASS-like kernel with the KernelBuilder DSL (including the
Table 1 instruction), profile a launch on the simulated V100, and print the
ranked advice report.

Run with:  python examples/quickstart.py
"""

from repro import AdvisingRequest, AdvisingSession, LaunchConfig, WorkloadSpec, render_report
from repro.cubin.builder import CubinBuilder, imm, p
from repro.isa.parser import parse_instruction


def build_kernel():
    """A kernel whose loop loads a value and uses it immediately."""
    builder = CubinBuilder(module_name="quickstart")
    k = builder.kernel("saxpy_like", source_file="quickstart.cu")
    k.at_line(5)
    k.s2r(0, "SR_TID.X")            # thread index
    k.s2r(1, "SR_CTAID.X")          # block index
    k.mov_imm(3, 0)
    k.imad(2, 0, imm(4), 3, wide=True)   # element address
    k.mov_imm(8, 0)                  # loop counter
    k.mov_imm(9, 1 << 16)            # loop bound (actual trips from the workload)
    k.at_line(8)
    k.isetp(0, 8, 9, "LT")
    with k.loop("elements", predicate=p(0)):
        k.at_line(8)
        k.iadd(8, 8, imm(1))
        k.at_line(9)
        k.ldg(4, 2)                  # x[i]
        k.at_line(10)
        k.ffma(5, 4, 4, 5)           # acc += x[i] * x[i]   <- consumes the load at once
        k.at_line(8)
        k.isetp(0, 8, 9, "LT")
    k.at_line(12)
    k.stg(2, 5)
    k.exit()
    builder.add_function(k.build())
    return builder.build()


def main():
    # Table 1: dissect the fields of a single instruction.
    instruction = parse_instruction("@P0 LDG.32 R0, [R2]")
    print("Table 1 dissection of '@P0 LDG.32 R0, [R2]':")
    print(f"  predicate        : {instruction.predicate}")
    print(f"  opcode.modifiers : {instruction.full_opcode}")
    print(f"  destination      : {[str(d) for d in instruction.dests]}")
    print(f"  source registers : {sorted(str(r) for r in instruction.used_registers)}")
    print()

    session = AdvisingSession(sample_period=8)
    request = AdvisingRequest(
        source="binary",
        cubin=build_kernel(),
        kernel="saxpy_like",
        config=LaunchConfig(grid_blocks=640, threads_per_block=128),
        workload=WorkloadSpec(loop_trip_counts={8: 16}),
    )
    print(render_report(session.report_for(request), top=3))


if __name__ == "__main__":
    main()
