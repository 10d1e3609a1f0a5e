"""``AdvisingSession.lint``, the ``gpa-advise lint`` CLI, and cross-checks."""

from pathlib import Path

import pytest

from repro.advisor.cli import main
from repro.api.request import AdvisingRequest, request_for_case
from repro.api.schema import ApiValidationError
from repro.arch.machine import ArchitectureError
from repro.staticcheck.crosscheck import cross_check
from repro.staticcheck.engine import StaticChecker

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


def test_session_lint_matches_engine(session):
    report = session.lint(request_for_case(CASE))
    assert report.to_json() == _golden(CASE)


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
