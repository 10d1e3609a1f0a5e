"""``AdvisingSession.lint``, the ``gpa-advise lint`` CLI, and cross-checks."""

import dataclasses
import inspect
import warnings
from pathlib import Path

import pytest

from repro.advisor.cli import main
from repro.api.request import AdvisingRequest, request_for_case
from repro.api.schema import ApiValidationError
from repro.arch.machine import AmpereLike, ArchitectureError
from repro.cubin.binary import Cubin
from repro.staticcheck.crosscheck import cross_check
from repro.staticcheck.engine import StaticChecker
from repro.staticcheck.rules import LintContext
from repro.structure.program import build_program_structure

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASE = "rodinia/hotspot:strength_reduction"


def _golden(case_id):
    slug = case_id.replace("/", "__").replace(":", "__")
    return (GOLDEN_DIR / f"{slug}.json").read_text()


@pytest.fixture(scope="module")
def advised(session):
    result = session.advise(request_for_case(CASE))
    assert result.ok, result.error
    return result


def test_session_lint_rejects_profile_requests(session, advised):
    from repro.workloads.registry import resolve_case

    setup = resolve_case(CASE).build_baseline()
    profile_request = AdvisingRequest(
        source="profile",
        profile=advised.report.profile,
        cubin=setup.cubin,
    )
    with pytest.raises(ApiValidationError, match="no binary to lint"):
        session.lint(profile_request)


def test_cross_check_corroborates_dynamic_advice(session, advised):
    static_report = session.lint(request_for_case(CASE))
    notes = cross_check(advised.report, static_report)
    agree = [note for note in notes if note.startswith("occupancy cross-check")]
    assert len(agree) == 1
    assert "agree" in agree[0]
    assert any(note.startswith("register pressure:") for note in notes)


def test_cross_check_never_mutates_the_dynamic_report(session, advised):
    before = advised.report.to_dict()
    static_report = session.lint(request_for_case(CASE))
    cross_check(advised.report, static_report)
    assert advised.report.to_dict() == before


def test_strict_architecture_raises(make_cubin):
    cubin = make_cubin("EXIT", arch_flag="sm_999")
    with pytest.raises(ArchitectureError, match="sm_999"):
        StaticChecker(strict_architecture=True).check(cubin)


def test_architecture_fallback_recorded_and_warned(make_cubin):
    cubin = make_cubin("EXIT", arch_flag="sm_999")
    with pytest.warns(UserWarning, match="sm_999"):
        report = StaticChecker().check(cubin)
    assert report.architecture_fallback == "sm_999"
    assert '"architecture_fallback": "sm_999"' in report.to_json()


def relabelled(cubin, arch_flag):
    return Cubin(arch_flag=arch_flag, functions=dict(cubin.functions))


def test_fallback_lints_against_the_default_architecture(toy_cubin, toy_config):
    with pytest.warns(UserWarning, match="Volta V100"):
        fallback = StaticChecker().check(relabelled(toy_cubin, "sm_999"), config=toy_config)
    volta = StaticChecker().check(toy_cubin, config=toy_config)
    assert fallback.functions == volta.functions
    assert fallback.diagnostics == volta.diagnostics


def test_fallback_lints_against_the_checkers_architecture(toy_cubin, toy_config):
    checker = StaticChecker(architecture=AmpereLike)
    with pytest.warns(UserWarning, match=AmpereLike.name):
        fallback = checker.check(relabelled(toy_cubin, "sm_999"), config=toy_config)
    ampere = StaticChecker().check(
        relabelled(toy_cubin, AmpereLike.arch_flag), config=toy_config
    )
    assert fallback.functions == ampere.functions
    assert fallback.diagnostics == ampere.diagnostics
    volta = StaticChecker().check(toy_cubin, config=toy_config)
    assert fallback.functions != volta.functions


def test_known_architecture_lints_every_function_without_warning(toy_cubin):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = StaticChecker(strict_architecture=True).check(toy_cubin)
    assert report.arch_flag == "sm_70"
    assert report.architecture_fallback is None
    assert report.kernel == "toy_kernel"
    assert [entry.name for entry in report.functions] == sorted(toy_cubin.functions)
    structure = build_program_structure(toy_cubin)
    for entry in report.functions:
        function = structure.function(entry.name)
        assert entry.blocks == len(function.cfg.blocks)
        assert entry.loops == len(function.loops())


def test_the_checker_and_the_rule_context_take_no_precomputed_facts():
    # The facts a rule reads live on the function structure, and the rule
    # set is fixed: neither is handed in.
    assert [field.name for field in dataclasses.fields(LintContext)] == [
        "structure", "architecture", "workload",
    ]
    assert list(inspect.signature(StaticChecker).parameters) == [
        "architecture", "strict_architecture",
    ]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lint_single_case_json(capsys):
    assert main(["lint", "--case", CASE, "--output", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _golden(CASE)


def test_cli_lint_single_case_text(capsys):
    assert main(["lint", "--case", CASE]) == 0
    out = capsys.readouterr().out
    assert f"Static lint report for {CASE}" in out


def test_cli_lint_list(capsys):
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    assert CASE in out
    assert len(out.strip().splitlines()) == len(list(GOLDEN_DIR.glob("*.json")))


def test_cli_lint_all_to_directory(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert (
        main(
            [
                "lint",
                "--all",
                "--output",
                "json",
                "--output-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    written = sorted(path.name for path in out_dir.glob("*.json"))
    golden = sorted(path.name for path in GOLDEN_DIR.glob("*.json"))
    assert written == golden
    for name in written:
        assert (out_dir / name).read_text() == (GOLDEN_DIR / name).read_text()


def test_cli_lint_unknown_case_fails(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--case", "no/such:case"])
    capsys.readouterr()


def test_cli_lint_case_and_all_are_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--case", CASE, "--all"])
    capsys.readouterr()


def test_cli_lint_crosscheck(capsys):
    assert main(["lint", "--case", CASE, "--crosscheck"]) == 0
    out = capsys.readouterr().out
    assert "occupancy cross-check" in out
