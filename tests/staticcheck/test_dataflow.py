"""The generic worklist solver and post-dominators."""

import pytest

from repro.cfg.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowProblem,
    compute_post_dominators,
    reachable_blocks,
    solve_dataflow,
)

DIAMOND = """
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

TWO_EXITS = """
ISETP.LT.AND P0, R1, R2
@P0 BRA OTHER
EXIT
OTHER:
EXIT
"""

SELF_LOOP = """
LOOP:
BRA LOOP
"""

DEAD_TAIL = """
BRA END
MOV R0, 0x1
END:
EXIT
"""


class BlockTrace(DataflowProblem):
    """Forward union of visited block indices (a pure plumbing probe)."""

    direction = FORWARD

    def transfer(self, block, value):
        return value | {block.index}


class BackwardTrace(BlockTrace):
    direction = BACKWARD


class BadDirection(BlockTrace):
    direction = "sideways"


def test_unknown_direction_rejected(make_cfg):
    with pytest.raises(ValueError, match="sideways"):
        solve_dataflow(make_cfg(DIAMOND), BadDirection())


def test_forward_values_accumulate_along_paths(make_cfg):
    cfg = make_cfg(DIAMOND)
    solution = solve_dataflow(cfg, BlockTrace())
    # Entry block sees only itself; the join block's entry has seen both arms.
    assert solution.value_out(cfg.entry_index) == frozenset({cfg.entry_index})
    join = max(block.index for block in cfg.blocks)
    assert solution.value_in(join) == frozenset(
        index for index in range(join)
    ), "both diamond arms must reach the join"


def test_backward_values_flow_from_exits(make_cfg):
    cfg = make_cfg(DIAMOND)
    solution = solve_dataflow(cfg, BackwardTrace())
    # In the backward direction the entry's IN set still indexes the block's
    # *entry*: it has absorbed every block on some path to an exit.
    all_blocks = frozenset(block.index for block in cfg.blocks)
    assert solution.value_in(cfg.entry_index) | {cfg.entry_index} == all_blocks


def test_solver_is_deterministic(make_cfg):
    first = solve_dataflow(make_cfg(DIAMOND), BlockTrace())
    second = solve_dataflow(make_cfg(DIAMOND), BlockTrace())
    assert first.in_values == second.in_values
    assert first.out_values == second.out_values
    assert first.iterations == second.iterations
    assert first.iterations > 0


def test_self_loop_terminates(make_cfg):
    cfg = make_cfg(SELF_LOOP)
    solution = solve_dataflow(cfg, BlockTrace())
    assert solution.value_out(cfg.entry_index) == frozenset({cfg.entry_index})


def test_unreachable_block_keeps_participating(make_cfg):
    cfg = make_cfg(DEAD_TAIL)
    solution = solve_dataflow(cfg, BlockTrace())
    reachable = reachable_blocks(cfg)
    dead = [block.index for block in cfg.blocks if block.index not in reachable]
    assert dead, "DEAD_TAIL must contain an unreachable block"
    for index in dead:
        # No KeyError, and the dead block's value includes itself.
        assert index in solution.value_out(index)


def test_reachable_blocks(make_cfg):
    cfg = make_cfg(DEAD_TAIL)
    reachable = reachable_blocks(cfg)
    assert cfg.entry_index in reachable
    assert len(reachable) < len(cfg.blocks)


def test_post_dominators_diamond(make_cfg):
    cfg = make_cfg(DIAMOND)
    postdom = compute_post_dominators(cfg)
    join = max(block.index for block in cfg.blocks)
    # The join (which also holds EXIT here) post-dominates every block,
    # and the relation is reflexive.
    for block in cfg.blocks:
        assert join in postdom[block.index]
        assert block.index in postdom[block.index]
    # Neither arm post-dominates the entry.
    arms = [
        block.index
        for block in cfg.blocks
        if block.index not in (cfg.entry_index, join)
    ]
    for arm in arms:
        assert arm not in postdom[cfg.entry_index]


def test_post_dominators_two_exits(make_cfg):
    cfg = make_cfg(TWO_EXITS)
    postdom = compute_post_dominators(cfg)
    # With a virtual common exit, no single exit block post-dominates the
    # entry: only the entry itself does.
    assert postdom[cfg.entry_index] == frozenset({cfg.entry_index})


def test_post_dominators_infinite_loop_conservative(make_cfg):
    cfg = make_cfg(SELF_LOOP)
    postdom = compute_post_dominators(cfg)
    # A block that cannot reach any exit keeps the full set (reads as
    # "hazard-free" to rules, per the documented contract).
    all_blocks = frozenset(block.index for block in cfg.blocks)
    assert postdom[cfg.entry_index] == all_blocks
