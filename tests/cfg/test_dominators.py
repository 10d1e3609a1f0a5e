"""Tests for dominator tree computation."""

from repro.cfg.dominators import compute_dominator_tree
from repro.cfg.graph import build_cfg
from repro.sass import parse_program


def build(text):
    cfg = build_cfg(parse_program(text))
    return cfg, compute_dominator_tree(cfg)


DIAMOND = """
ISETP.LT.AND P0, R1, R2
@P0 BRA THEN
IADD R3, R3, R1
BRA JOIN
THEN:
IADD R3, R3, R2
JOIN:
STG.E.32 [R4], R3
EXIT
"""


def test_entry_dominates_everything():
    cfg, tree = build(DIAMOND)
    for block in cfg.blocks:
        assert tree.dominates(cfg.entry_index, block.index)


def test_branch_arms_do_not_dominate_join():
    cfg, tree = build(DIAMOND)
    join = cfg.block_containing(0x50).index
    then = cfg.block_containing(0x40).index
    else_ = cfg.block_containing(0x20).index
    assert not tree.dominates(then, join)
    assert not tree.dominates(else_, join)
    assert tree.immediate_dominators[join] == cfg.entry_index


def test_strict_domination_excludes_self():
    cfg, tree = build(DIAMOND)
    assert tree.dominates(cfg.entry_index, cfg.entry_index)
    assert not tree.strictly_dominates(cfg.entry_index, cfg.entry_index)


def test_dominators_chain_reaches_entry():
    cfg, tree = build(DIAMOND)
    join = cfg.block_containing(0x50).index
    chain = tree.dominators_of(join)
    assert chain[0] == join
    assert chain[-1] == cfg.entry_index


def test_loop_header_dominates_body():
    cfg, tree = build(
        """
        MOV32I R1, 0
        HEAD:
        IADD R1, R1, R2
        ISETP.LT.AND P0, R1, R3
        @P0 BRA BODY
        EXIT
        BODY:
        IADD R4, R4, R1
        BRA HEAD
        """
    )
    head = cfg.block_containing(0x10).index
    body = cfg.block_containing(0x50).index
    assert tree.dominates(head, body)


def test_children_are_consistent_with_idom():
    cfg, tree = build(DIAMOND)
    for parent in [block.index for block in cfg.blocks]:
        for child in tree.children(parent):
            assert tree.immediate_dominators[child] == parent
