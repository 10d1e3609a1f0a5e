"""CFG corner cases: unreachable code, multi-exit loops, nested and
irreducible-looking shapes.

The static lint layer leans on dominators, post-dominators and the loop
nest for hazard reasoning, so the structural passes must stay well-defined
on the malformed shapes hand-written (or machine-generated) SASS can take —
not just on the tidy compiler output the registry cases model.
"""

from repro.cfg.dominators import compute_dominator_tree
from repro.cfg.graph import build_cfg
from repro.cfg.loops import find_loops
from repro.sass import parse_program


def build(text):
    cfg = build_cfg(parse_program(text))
    return cfg, compute_dominator_tree(cfg)


# ----------------------------------------------------------------------
# Unreachable blocks
# ----------------------------------------------------------------------
DEAD_CODE = """
BRA LIVE
DEAD:
IADD R1, R1, R2
BRA DEAD
LIVE:
EXIT
"""


def test_unreachable_loop_does_not_break_structure_passes():
    cfg, tree = build(DEAD_CODE)
    # The dead self-loop is carved into its own block(s)...
    assert len(cfg.blocks) == 3
    # ...and RPO still enumerates every block exactly once.
    order = cfg.reverse_post_order()
    assert sorted(order) == sorted(block.index for block in cfg.blocks)
    # The loop pass sees the dead cycle's back edge without crashing.
    loops = find_loops(cfg, tree)
    assert all(isinstance(loop.blocks, frozenset) for loop in loops.loops)


def test_unreachable_block_is_not_dominated_by_entry_path():
    cfg, tree = build(DEAD_CODE)
    dead = cfg.block_containing(0x10).index
    live = cfg.block_containing(0x30).index
    assert tree.dominates(cfg.entry_index, live)
    # The entry has no path to the dead block; whatever idom convention the
    # tree picks, the dead block must never dominate live code.
    assert not tree.dominates(dead, live)
    assert not tree.dominates(dead, cfg.entry_index)


# ----------------------------------------------------------------------
# Multi-exit loops
# ----------------------------------------------------------------------
LOOP_WITH_BREAK = """
MOV32I R1, 0
HEAD:
IADD R1, R1, R2
ISETP.GE.AND P1, R1, R5
@P1 BRA OUT
ISETP.LT.AND P0, R1, R3
@P0 BRA HEAD
STG.E.32 [R6], R1
OUT:
EXIT
"""


def test_loop_with_break_has_one_loop_two_exits():
    cfg, tree = build(LOOP_WITH_BREAK)
    loops = find_loops(cfg, tree)
    assert len(loops.loops) == 1
    loop = loops.loops[0]
    head = cfg.block_containing(0x10).index
    assert loop.header == head
    # Two distinct edges leave the loop: the break and the fallthrough.
    exit_edges = [
        (source, destination)
        for source in loop.blocks
        for destination in cfg.successors.get(source, [])
        if destination not in loop.blocks
    ]
    assert len(exit_edges) == 2
    assert len({source for source, _ in exit_edges}) == 2


def test_loop_header_dominates_break_block():
    cfg, tree = build(LOOP_WITH_BREAK)
    loops = find_loops(cfg, tree)
    loop = loops.loops[0]
    for block_index in loop.blocks:
        assert tree.dominates(loop.header, block_index)


# ----------------------------------------------------------------------
# Nested loops
# ----------------------------------------------------------------------
NESTED = """
MOV32I R1, 0
OUTER:
MOV32I R2, 0
INNER:
IADD R2, R2, R3
ISETP.LT.AND P0, R2, R4
@P0 BRA INNER
IADD R1, R1, R2
ISETP.LT.AND P1, R1, R5
@P1 BRA OUTER
EXIT
"""


def test_nested_loops_parenting():
    cfg, tree = build(NESTED)
    loops = find_loops(cfg, tree)
    assert len(loops.loops) == 2
    inner = next(loop for loop in loops.loops if loop.header_offset == 0x20)
    outer = next(loop for loop in loops.loops if loop.header_offset == 0x10)
    assert inner.parent == outer.index
    assert outer.parent is None
    assert inner.index in outer.children
    assert inner.blocks < outer.blocks


def test_nested_loop_back_edges_are_disjoint():
    cfg, tree = build(NESTED)
    loops = find_loops(cfg, tree)
    all_edges = [edge for loop in loops.loops for edge in loop.back_edges]
    assert len(all_edges) == len(set(all_edges)) == 2


# ----------------------------------------------------------------------
# Irreducible-looking flow: a jump into the middle of a loop body
# ----------------------------------------------------------------------
SIDE_ENTRY = """
ISETP.LT.AND P0, R1, R2
@P0 BRA MIDDLE
HEAD:
IADD R1, R1, R3
MIDDLE:
IADD R1, R1, R4
ISETP.LT.AND P1, R1, R5
@P1 BRA HEAD
EXIT
"""


def test_side_entry_cycle_is_not_a_natural_loop():
    cfg, tree = build(SIDE_ENTRY)
    loops = find_loops(cfg, tree)
    head = cfg.block_containing(0x20).index
    middle = cfg.block_containing(0x30).index
    # HEAD does not dominate MIDDLE (the side entry skips it), so the
    # back edge MIDDLE->HEAD is not a dominator back edge: natural-loop
    # detection must not invent a loop here.
    assert not tree.dominates(head, middle)
    assert all(loop.header != head for loop in loops.loops)


def test_side_entry_cycle_keeps_rpo_and_dominators_consistent():
    cfg, tree = build(SIDE_ENTRY)
    order = cfg.reverse_post_order()
    assert sorted(order) == sorted(block.index for block in cfg.blocks)
    position = {block_index: rank for rank, block_index in enumerate(order)}
    # Dominators respect RPO: an idom always precedes its block.
    for block_index, idom in tree.immediate_dominators.items():
        if idom is not None and idom != block_index:
            assert position[idom] < position[block_index]
