"""The typed lint rules, each driven by a hand-written kernel.

The registry cases are well-formed by construction, so the hazard rules
(divergent barrier, unreachable code, pathological strides) are exercised
here with synthetic programs that actually contain the defect — and with
near-identical uniform twins proving the rules stay quiet without it.
"""

from repro.cfg.graph import build_cfg
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec
from repro.sass import parse_program
from repro.staticcheck.engine import StaticChecker
from repro.staticcheck.rules import find_divergent_branches

DIVERGENT_BARRIER = """
S2R R0, SR_TID.X
ISETP.LT.AND P0, R0, R2
@P0 BRA SKIP
BAR.SYNC
SKIP:
EXIT
"""

UNIFORM_BARRIER = """
MOV R0, 0x10
ISETP.LT.AND P0, R0, R2
@P0 BRA SKIP
BAR.SYNC
SKIP:
EXIT
"""

POSTDOMINATED_BARRIER = """
S2R R0, SR_TID.X
ISETP.LT.AND P0, R0, R2
@P0 BRA JOIN
MOV R1, 0x1
JOIN:
BAR.SYNC
EXIT
"""

LAUNDERED_TAINT = """
S2R R0, SR_TID.X
MOV R0, 0x0
ISETP.LT.AND P0, R0, R2
@P0 BRA SKIP
BAR.SYNC
SKIP:
EXIT
"""

TAINT_THROUGH_LOAD = """
S2R R0, SR_TID.X
LDG.E.32 R1, [R0]
ISETP.LT.AND P0, R1, R2
@P0 BRA SKIP
MOV R3, 0x1
SKIP:
EXIT
"""

UNREACHABLE = """
BRA END
MOV R0, 0x1
END:
EXIT
"""

GLOBAL_LOAD = """
LDG.E.32 R0, [R4]
EXIT
"""

SHARED_LOAD = """
LDS.32 R0, [R4]
EXIT
"""


def _rules_fired(report):
    return sorted({diagnostic.rule for diagnostic in report.diagnostics})


def test_divergent_branch_from_thread_index(make_cubin):
    report = StaticChecker().check(make_cubin(DIVERGENT_BARRIER))
    findings = report.diagnostics_for("divergent-branch")
    assert len(findings) == 1
    assert findings[0].offset == 0x20
    assert findings[0].severity == "info"
    assert findings[0].details["kind"] == "predicate"


def test_barrier_under_divergence_is_an_error(make_cubin):
    report = StaticChecker().check(make_cubin(DIVERGENT_BARRIER))
    findings = report.diagnostics_for("barrier-divergence")
    assert len(findings) == 1
    assert findings[0].offset == 0x30
    assert findings[0].severity == "error"
    assert findings[0].details["branch_offset"] == 0x20


def test_uniform_branch_is_quiet(make_cubin):
    report = StaticChecker().check(make_cubin(UNIFORM_BARRIER))
    assert report.diagnostics_for("divergent-branch") == []
    assert report.diagnostics_for("barrier-divergence") == []


def test_postdominated_barrier_is_safe(make_cubin):
    report = StaticChecker().check(make_cubin(POSTDOMINATED_BARRIER))
    # The branch still diverges, but every path reconverges at the barrier.
    assert len(report.diagnostics_for("divergent-branch")) == 1
    assert report.diagnostics_for("barrier-divergence") == []


def test_unconditional_uniform_write_launders_taint(make_cubin):
    report = StaticChecker().check(make_cubin(LAUNDERED_TAINT))
    assert report.diagnostics_for("divergent-branch") == []
    assert report.diagnostics_for("barrier-divergence") == []


def test_taint_flows_through_dependent_loads():
    cfg = build_cfg(parse_program(TAINT_THROUGH_LOAD))
    branches = find_divergent_branches(cfg)
    # tid -> address -> loaded value -> predicate -> branch.
    assert [(branch.offset, branch.kind) for branch in branches] == [
        (0x30, "predicate")
    ]


def test_unreachable_block_flagged(make_cubin):
    report = StaticChecker().check(make_cubin(UNREACHABLE))
    findings = report.diagnostics_for("unreachable-block")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert findings[0].details["block"] == 1
    assert report.function_lint("kern").unreachable_blocks == [1]


def test_dead_register_write_flagged(make_cubin):
    cubin = make_cubin(
        """
        MOV R1, 0x1
        MOV R1, 0x2
        STG.E.32 [R2], R1
        EXIT
        """
    )
    report = StaticChecker().check(cubin)
    findings = report.diagnostics_for("dead-register-write")
    assert len(findings) == 1
    assert findings[0].offset == 0x0
    assert findings[0].details == {"register": 1}


def test_uncoalesced_stride_needs_a_workload(make_cubin):
    report = StaticChecker().check(make_cubin(GLOBAL_LOAD))
    assert report.diagnostics_for("uncoalesced-stride") == []


def test_uncoalesced_stride_fires_on_wide_strides(make_cubin):
    workload = WorkloadSpec(default_access_stride_bytes=128)
    report = StaticChecker().check(make_cubin(GLOBAL_LOAD), workload=workload)
    findings = report.diagnostics_for("uncoalesced-stride")
    assert len(findings) == 1
    assert findings[0].details == {
        "stride_bytes": 128,
        "transactions_per_access": 32,
    }


def test_unit_stride_is_coalesced(make_cubin):
    workload = WorkloadSpec(default_access_stride_bytes=4)
    report = StaticChecker().check(make_cubin(GLOBAL_LOAD), workload=workload)
    assert report.diagnostics_for("uncoalesced-stride") == []


def test_bank_conflict_from_stride(make_cubin):
    workload = WorkloadSpec(default_access_stride_bytes=128)
    report = StaticChecker().check(make_cubin(SHARED_LOAD), workload=workload)
    findings = report.diagnostics_for("bank-conflict")
    assert len(findings) == 1
    # 128-byte stride lands every thread on bank 0: 32-way conflict.
    assert findings[0].details["conflict_ways"] == 32
    # The shared load is not a global access.
    assert report.diagnostics_for("uncoalesced-stride") == []


def test_bank_conflict_from_latency_scale(make_cubin):
    workload = WorkloadSpec(
        default_access_stride_bytes=4, shared_latency_scale=2.0
    )
    report = StaticChecker().check(make_cubin(SHARED_LOAD), workload=workload)
    findings = report.diagnostics_for("bank-conflict")
    assert len(findings) == 1
    assert findings[0].details["shared_latency_scale"] == 2.0
    assert "latency" in findings[0].message


def test_conflict_free_shared_access_is_quiet(make_cubin):
    workload = WorkloadSpec(default_access_stride_bytes=4)
    report = StaticChecker().check(make_cubin(SHARED_LOAD), workload=workload)
    assert report.diagnostics_for("bank-conflict") == []


def test_diagnostics_are_sorted_and_stable(make_cubin):
    report = StaticChecker().check(make_cubin(DIVERGENT_BARRIER))
    keys = [diagnostic.sort_key for diagnostic in report.diagnostics]
    assert keys == sorted(keys)
    again = StaticChecker().check(make_cubin(DIVERGENT_BARRIER))
    assert report.to_json() == again.to_json()


def test_occupancy_block_present_only_with_config(make_cubin):
    cubin = make_cubin(GLOBAL_LOAD)
    bare = StaticChecker().check(cubin)
    assert bare.function_lint("kern").occupancy is None
    config = LaunchConfig(grid_blocks=80, threads_per_block=256)
    launched = StaticChecker().check(cubin, config=config)
    occupancy = launched.function_lint("kern").occupancy
    assert occupancy is not None
    assert set(occupancy) == {"declared", "static_pressure"}
    assert 0.0 < occupancy["declared"]["occupancy"] <= 1.0


def test_rules_fired_summary(make_cubin):
    report = StaticChecker().check(make_cubin(DIVERGENT_BARRIER))
    assert _rules_fired(report) == ["barrier-divergence", "divergent-branch"]
    counts = report.counts_by_severity()
    assert counts["error"] == 1
    assert counts["info"] == 1
