"""Tests for backward slicing: operands, barrier registers and predicates."""

import sys
import threading

from repro.blame.slicing import BackwardSlicer
from repro.cfg.graph import build_cfg
from repro.cubin.builder import assign_control_codes
from repro.sass import parse_program
from repro.structure.program import build_program_structure
from repro.workloads.registry import case_by_name


def slicer_for(text, assign=False):
    program = parse_program(text)
    if assign:
        program = assign_control_codes(program)
    return BackwardSlicer(build_cfg(program)), program


def test_simple_register_def_use():
    slicer, program = slicer_for("LDG.E.32 R0, [R2]\nIADD R3, R0, R1\nEXIT")
    deps = slicer.slice_instruction(program[1].offset)
    assert program[0].offset in deps.source_offsets()


def test_immediate_def_shadows_earlier_def():
    slicer, program = slicer_for(
        "MOV32I R0, 1\nMOV32I R0, 2\nIADD R3, R0, R1\nEXIT"
    )
    deps = slicer.slice_instruction(program[2].offset)
    # Only the closest unconditional def is an immediate dependency source.
    assert deps.source_offsets() == [program[1].offset]


def test_figure3_barrier_register_dependency():
    """A BRA that waits on B0 depends on the LDG that writes B0 (Figure 3)."""
    slicer, program = slicer_for("LDG.E.32 R0, [R2]\nBRA 0x100\nEXIT", assign=True)
    deps = slicer.slice_instruction(program[1].offset)
    assert program[0].offset in deps.source_offsets()
    assert any(resource[0] == "B" for resource in deps.defs)


def test_figure4_predicated_defs_both_kept():
    """Figure 4a: an unpredicated use keeps both @P0 and @!P0 defs plus other paths."""
    slicer, program = slicer_for(
        """
        ISETP.LT.AND P0, R9, R8
        @!P0 LDC.32 R0, [R4]
        @P0 LDG.E.32 R0, [R2]
        IADD R8, R0, R7
        EXIT
        """
    )
    use = program[3]
    deps = slicer.slice_instruction(use.offset)
    sources = deps.source_offsets()
    assert program[1].offset in sources  # @!P0 LDC
    assert program[2].offset in sources  # @P0 LDG


def test_unpredicated_def_stops_search():
    slicer, program = slicer_for(
        """
        MOV32I R0, 7
        IMAD R0, R4, R5, R6
        IADD R8, R0, R7
        EXIT
        """
    )
    deps = slicer.slice_instruction(program[2].offset)
    # The IMAD fully covers R0; the earlier MOV is not an immediate source.
    assert deps.source_offsets() == [program[1].offset]


def test_matching_predicate_def_covers_predicated_use():
    slicer, program = slicer_for(
        """
        MOV32I R0, 1
        @P0 MOV32I R0, 2
        @P0 IADD R3, R0, R1
        EXIT
        """
    )
    deps = slicer.slice_instruction(program[2].offset)
    # The @P0 def covers the @P0 use; the search stops there for R0 (the
    # guard predicate P0 itself has no defs in this snippet).
    register_defs = deps.defs.get(("R", 0), [])
    assert [site.offset for site in register_defs] == [program[1].offset]


def test_defs_found_through_back_edges():
    slicer, program = slicer_for(
        """
        MOV32I R1, 0
        LOOP:
        IADD R5, R4, R1
        LDG.E.32 R4, [R2]
        ISETP.LT.AND P0, R1, R3
        @P0 BRA LOOP
        EXIT
        """
    )
    use = program[1]       # IADD consumes R4 loaded on the previous iteration
    load = program[2]
    deps = slicer.slice_instruction(use.offset)
    assert load.offset in deps.source_offsets()


def test_memory_address_registers_are_sliced():
    slicer, program = slicer_for(
        "IADD R2, R6, R7\nLDG.E.32 R0, [R2]\nEXIT"
    )
    deps = slicer.slice_instruction(program[1].offset)
    assert program[0].offset in deps.source_offsets()


def test_slices_are_cached():
    slicer, program = slicer_for("LDG.E.32 R0, [R2]\nIADD R3, R0, R1\nEXIT")
    first = slicer.slice_instruction(program[1].offset)
    second = slicer.slice_instruction(program[1].offset)
    assert first is second


def test_instruction_without_register_uses_has_no_defs():
    slicer, program = slicer_for("MOV32I R1, 5\nEXIT")
    deps = slicer.slice_instruction(program[1].offset)
    assert not deps


def test_def_reaches_across_a_chain_of_more_than_512_blocks():
    """The slice has no cap on the blocks it crosses."""
    branches = "\n".join(f"@P0 BRA L{index}\nL{index}:" for index in range(600))
    slicer, program = slicer_for(f"LDG.E.32 R0, [R2]\n{branches}\nIADD R3, R0, R1\nEXIT")
    assert len(slicer.cfg.blocks) > 512
    load, use = program[0], program[-2]
    assert use.opcode == "IADD"
    deps = slicer.slice_instruction(use.offset)
    assert [site.offset for site in deps.defs[("R", 0)]] == [load.offset]


def test_defs_on_both_arms_reach_the_join():
    slicer, program = slicer_for(
        """
        ISETP.LT.AND P0, R1, R2
        @P0 BRA ELSE
        MOV R3, 0x1
        BRA JOIN
        ELSE:
        MOV R3, 0x2
        JOIN:
        STG.E.32 [R4], R3
        EXIT
        """
    )
    deps = slicer.slice_instruction(program[5].offset)
    assert [site.offset for site in deps.defs[("R", 3)]] == [
        program[2].offset,
        program[4].offset,
    ]


def test_unconditional_def_in_a_later_block_hides_an_earlier_def():
    slicer, program = slicer_for(
        """
        MOV R1, 0x1
        BRA NEXT
        NEXT:
        MOV R1, 0x2
        STG.E.32 [R2], R1
        EXIT
        """
    )
    deps = slicer.slice_instruction(program[3].offset)
    assert [site.offset for site in deps.defs[("R", 1)]] == [program[2].offset]


def test_predicated_def_in_a_later_block_does_not_hide_an_earlier_def():
    slicer, program = slicer_for(
        """
        MOV R1, 0x1
        BRA NEXT
        NEXT:
        @P0 MOV R1, 0x2
        STG.E.32 [R2], R1
        EXIT
        """
    )
    deps = slicer.slice_instruction(program[3].offset)
    assert [site.offset for site in deps.defs[("R", 1)]] == [
        program[0].offset,
        program[2].offset,
    ]


def def_offsets(slicer, offsets):
    """Each use's def offsets by resource, in ``offsets`` order."""
    return [
        {resource: [site.offset for site in sites]
         for resource, sites in slicer.slice_instruction(offset).defs.items()}
        for offset in offsets
    ]


def test_threads_sharing_a_slicer_get_the_serial_slices():
    """A function's slicer is shared by every analysis of its binary, on any
    thread: eight threads slicing every instruction of one fresh slicer at
    once (half of them backwards) must see the slices of a serial run.  A
    block's history published before it is filled fails this."""
    setup = case_by_name("rodinia/myocyte:fast_math").build_baseline()
    cfg = build_program_structure(setup.cubin).function(setup.kernel).cfg
    offsets = [instruction.offset for instruction in cfg.instructions()]
    expected = def_offsets(BackwardSlicer(cfg), offsets)
    workers = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            slicer = BackwardSlicer(cfg)
            slicer.slice_instruction(offsets[0])  # solve once, before the race
            start = threading.Barrier(workers)
            results = []

            def slice_all(step):
                start.wait(timeout=10)
                results.append((step, def_offsets(slicer, offsets[::step])))

            threads = [
                threading.Thread(target=slice_all, args=(1 if index % 2 else -1,))
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == workers
            assert all(got == expected[::step] for step, got in results)
    finally:
        sys.setswitchinterval(interval)
