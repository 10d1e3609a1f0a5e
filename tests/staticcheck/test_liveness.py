"""Register liveness, dead writes and pressure."""

from repro.staticcheck.liveness import analyze_liveness


def test_straight_line_live_in(make_cfg):
    cfg = make_cfg(
        """
        IADD R1, R2, R3
        STG.E.32 [R4], R1
        EXIT
        """
    )
    analysis = analyze_liveness(cfg)
    # R2/R3 feed the add, R4+R5 the 64-bit store address; R1 is defined
    # locally (global memory operands always use a register pair).
    assert analysis.live_in[cfg.entry_index] == frozenset({2, 3, 4, 5})


def test_dead_write_detected_and_sorted(make_cfg):
    cfg = make_cfg(
        """
        MOV R1, 0x1
        MOV R5, 0x7
        MOV R1, 0x2
        STG.E.32 [R2], R1
        EXIT
        """
    )
    analysis = analyze_liveness(cfg)
    assert [(write.offset, write.register) for write in analysis.dead_writes] == [
        (0x0, 1),   # first MOV R1 clobbered before any read
        (0x10, 5),  # R5 never read at all
    ]


def test_predicated_write_neither_kills_nor_dies(make_cfg):
    cfg = make_cfg(
        """
        MOV R1, 0x1
        @P0 MOV R1, 0x2
        STG.E.32 [R2], R1
        EXIT
        """
    )
    analysis = analyze_liveness(cfg)
    # The predicated write only *may* happen: the first MOV can still be
    # read, so nothing here is dead.
    assert analysis.dead_writes == []


def test_rz_is_not_tracked(make_cfg):
    cfg = make_cfg(
        """
        IADD R1, R2, RZ
        STS.32 [R3], R1
        EXIT
        """
    )
    analysis = analyze_liveness(cfg)
    assert 255 not in analysis.live_in[cfg.entry_index]
    assert analysis.live_in[cfg.entry_index] == frozenset({2, 3})


def test_loop_carried_value_is_live_around_back_edge(make_cfg):
    cfg = make_cfg(
        """
        MOV R1, 0x0
        MOV R2, 0x40
        LOOP:
        IADD R1, R1, R3
        ISETP.LT.AND P0, R1, R2
        @P0 BRA LOOP
        EXIT
        """
    )
    analysis = analyze_liveness(cfg)
    header = [block.index for block in cfg.blocks if block.start_offset == 0x20]
    assert len(header) == 1
    # The accumulator, the bound and the stride are all live into the header.
    assert analysis.live_in[header[0]] == frozenset({1, 2, 3})


def test_pressure_counts_simultaneously_live_registers(make_cfg):
    cfg = make_cfg(
        """
        MOV R1, 0x1
        MOV R2, 0x2
        MOV R3, 0x3
        IADD R4, R1, R2
        IADD R4, R4, R3
        STS.32 [R5], R4
        EXIT
        """
    )
    analysis = analyze_liveness(cfg)
    # At the peak, R1 R2 R3 and the shared-store address R5 are live together.
    assert analysis.max_pressure == 4
    assert analysis.max_pressure_offset is not None
    assert analysis.block_pressure[cfg.entry_index] == 4

