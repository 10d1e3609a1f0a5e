"""Tests for natural-loop detection and the loop-nest tree."""

from repro.cfg.graph import build_cfg
from repro.cfg.loops import find_loops
from repro.sass import parse_program


def single_loop_cfg():
    return build_cfg(parse_program(
        """
        MOV32I R1, 0
        OUTER:
        IADD R1, R1, R2
        ISETP.LT.AND P0, R1, R3
        @P0 BRA OUTER
        EXIT
        """
    ))


def nested_loop_cfg():
    return build_cfg(parse_program(
        """
        MOV32I R1, 0
        OUTER:
        MOV32I R2, 0
        INNER:
        IADD R2, R2, R4
        ISETP.LT.AND P1, R2, R5
        @P1 BRA INNER
        IADD R1, R1, R2
        ISETP.LT.AND P0, R1, R3
        @P0 BRA OUTER
        EXIT
        """
    ))


def test_single_loop_detected():
    nest = find_loops(single_loop_cfg())
    assert len(nest) == 1
    loop = nest.loops[0]
    assert loop.parent is None
    assert loop.header in loop.blocks
    assert loop.back_edges


def test_straight_line_code_has_no_loops():
    cfg = build_cfg(parse_program("MOV R1, R2\nIADD R1, R1, R3\nEXIT"))
    assert len(find_loops(cfg)) == 0


def test_nested_loops_have_parent_child_relation():
    nest = find_loops(nested_loop_cfg())
    assert len(nest) == 2
    inner = min(nest.loops, key=lambda loop: len(loop.blocks))
    outer = max(nest.loops, key=lambda loop: len(loop.blocks))
    assert inner.parent == outer.index
    assert inner.index in outer.children
    assert inner.blocks < outer.blocks


def test_innermost_loop_containing():
    cfg = nested_loop_cfg()
    nest = find_loops(cfg)
    inner = min(nest.loops, key=lambda loop: len(loop.blocks))
    # The inner IADD at 0x30 belongs to the inner loop.
    assert nest.innermost_loop_containing(0x30).index == inner.index
    # The outer accumulate at 0x60 belongs only to the outer loop.
    outer = max(nest.loops, key=lambda loop: len(loop.blocks))
    assert nest.innermost_loop_containing(0x60).index == outer.index
    # The entry is in no loop.
    assert nest.innermost_loop_containing(0x0) is None


def test_loops_containing_orders_innermost_first():
    nest = find_loops(nested_loop_cfg())
    containing = nest.loops_containing(0x30)
    assert len(containing) == 2
    assert len(containing[0].blocks) <= len(containing[1].blocks)


def test_same_loop_query():
    nest = find_loops(nested_loop_cfg())
    assert nest.same_loop(0x30, 0x40)      # both in the inner loop
    assert nest.same_loop(0x30, 0x60)      # share the outer loop
    assert not nest.same_loop(0x0, 0x30)   # entry is in no loop


def test_nested_loops_helper_includes_descendants():
    nest = find_loops(nested_loop_cfg())
    outer = max(nest.loops, key=lambda loop: len(loop.blocks))
    nested = nest.nested_loops(outer)
    assert {loop.index for loop in nested} == {loop.index for loop in nest.loops}


def test_instructions_in_loop_cover_body():
    nest = find_loops(single_loop_cfg())
    instructions = nest.instructions_in_loop(nest.loops[0])
    opcodes = [instruction.opcode for instruction in instructions]
    assert "IADD" in opcodes and "BRA" in opcodes
