"""The CLI and request surfaces over the SASS frontend.

``gpa-advise lint --sass`` / ``--sass-corpus`` and
``request_for_listing(...)`` are how users reach the frontend without
importing :mod:`repro.sass` directly.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.advisor.cli import main as cli_main
from repro.api.request import AdvisingRequest, request_for_listing
from repro.api.schema import ApiValidationError
from repro.sampling.sample import LaunchConfig
from repro.sass.corpus import SASS_CORPUS, default_corpus_dir

CORPUS_DIR = Path(default_corpus_dir())
SAXPY = CORPUS_DIR / "saxpy_sm70.sass"


def relabelled_saxpy() -> str:
    """The saxpy listing declaring ``sm_90``, which has no machine model,
    in its ``code for`` line and its header flags."""
    return SAXPY.read_text().replace("sm_70", "sm_90").replace("SM70", "SM90")


class TestLintSassCli:
    def test_text_report_includes_ingest_summary(self, capsys):
        assert cli_main(["lint", "--sass", str(SAXPY)]) == 0
        out = capsys.readouterr().out
        assert "Ingest: 18/18 instructions decoded" in out
        assert "dialect cuobjdump" in out

    def test_json_report_carries_the_ingest_ledger(self, capsys):
        assert cli_main(["lint", "--sass", str(SAXPY), "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "static_report"
        assert payload["ingest"]["coverage"] == 1.0
        assert payload["ingest"]["source_name"] == "saxpy_sm70.sass"

    def test_missing_file_fails_cleanly(self, capsys):
        assert cli_main(["lint", "--sass", "/no/such/listing.sass"]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_empty_listing_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.sass"
        empty.write_text("# no instructions\n")
        assert cli_main(["lint", "--sass", str(empty)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_sass_conflicts_with_case_scope(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["lint", "--sass", str(SAXPY), "--all"])

    def test_unknown_architecture_falls_back_unless_strict(self, tmp_path, capsys):
        listing = tmp_path / "saxpy_sm90.sass"
        listing.write_text(relabelled_saxpy())
        with pytest.warns(UserWarning, match="sm_90"):
            assert cli_main(["lint", "--sass", str(listing), "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["architecture_fallback"] == "sm_90"

        assert cli_main(["lint", "--sass", str(listing), "--strict-arch"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gpa-advise lint: unknown architecture flag 'sm_90'")
        assert captured.err.count("\n") == 1


class TestLintSassCorpusCli:
    def test_text_sweep_summarizes_coverage(self, capsys):
        assert cli_main(["lint", "--sass-corpus"]) == 0
        out = capsys.readouterr().out
        assert f"Linted {len(SASS_CORPUS)} SASS listings" in out
        assert "worst decode coverage" in out

    def test_json_sweep_is_keyed_by_case_id(self, capsys):
        assert cli_main(["lint", "--sass-corpus", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {case.case_id for case in SASS_CORPUS}

    def test_output_dir_writes_the_golden_layout(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert (
            cli_main(
                [
                    "lint", "--sass-corpus", "--output", "json",
                    "--output-dir", str(out_dir),
                ]
            )
            == 0
        )
        written = {path.name for path in out_dir.glob("*.json")}
        golden_dir = Path(__file__).resolve().parent / "golden"
        goldens = {path.name for path in golden_dir.glob("*.json")}
        assert written == goldens
        # Byte-for-byte the same as the committed goldens (CI's diff).
        for name in sorted(written):
            assert (out_dir / name).read_text() == (golden_dir / name).read_text()

    def test_output_dir_requires_json(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["lint", "--sass-corpus", "--output-dir", "x"])

    def test_strict_arch_rejects_an_unknown_architecture(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        (corpus / SAXPY.name).write_text(relabelled_saxpy())
        assert cli_main(["lint", "--sass-corpus", str(corpus), "--strict-arch"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gpa-advise lint: unknown architecture flag 'sm_90'")


class TestRequestForListing:
    def test_ingests_a_listing_into_a_binary_request(self):
        request = request_for_listing(SAXPY.read_text(), source_name="saxpy.sass")
        assert request.source == "binary"
        assert request.kernel == "_Z5saxpyifPKfPf"
        assert request.label == "saxpy.sass"
        assert request.cubin.arch_flag == "sm_70"
        assert request.config == LaunchConfig(grid_blocks=1, threads_per_block=128)

    def test_explicit_kernel_and_config_win(self):
        config = LaunchConfig(grid_blocks=64, threads_per_block=256)
        request = request_for_listing(
            SAXPY.read_text(), kernel="_Z5saxpyifPKfPf", config=config
        )
        assert request.config == config

    def test_unknown_default_arch_listing_uses_fallback(self):
        text = "MOV R0, RZ\nEXIT\n"
        request = request_for_listing(text, default_arch="sm_80")
        assert request.cubin.arch_flag == "sm_80"

    def test_request_round_trips_through_the_wire_form(self):
        request = request_for_listing(SAXPY.read_text(), source_name="saxpy.sass")
        restored = AdvisingRequest.from_dict(request.to_dict())
        assert restored.kernel == request.kernel
        original = request.cubin.functions[request.kernel].instructions
        reloaded = restored.cubin.functions[request.kernel].instructions
        assert [i.opcode for i in reloaded] == [i.opcode for i in original]

    def test_ambiguous_listing_needs_a_kernel(self):
        text = SAXPY.read_text()
        text += "\n" + text.replace("_Z5saxpyifPKfPf", "other")
        with pytest.raises(ApiValidationError, match="pass kernel="):
            request_for_listing(text)
        assert request_for_listing(text, kernel="other").kernel == "other"

class TestSessionLintCarriesIngest:
    def test_session_lint_reconstructs_the_ledger(self):
        from repro.api.session import AdvisingSession

        listing = Path(default_corpus_dir()) / "dotprod_unknown_sm80.sass"
        request = request_for_listing(
            listing.read_text(), source_name="dotprod.sass", default_arch="sm_80"
        )
        report = AdvisingSession().lint(request)
        assert report.ingest is not None
        golden = json.loads(
            (Path(__file__).parent / "golden" / "dotprod_unknown__sm_80.json").read_text()
        )
        # Per-function ledgers agree with the lint_file golden; the
        # listing-level source_name differs (request label vs file name).
        assert report.ingest["functions"] == golden["ingest"]["functions"]
        assert report.ingest["coverage"] == golden["ingest"]["coverage"]
        assert any(diag.rule == "unknown-opcode" for diag in report.diagnostics)

    def test_registry_case_lint_has_null_ingest(self):
        from repro import request_for_case
        from repro.api.session import AdvisingSession

        report = AdvisingSession().lint(
            request_for_case("rodinia/gaussian:thread_increase")
        )
        assert report.ingest is None

    def test_round_tripped_request_keeps_the_ledger(self):
        from repro.api.session import AdvisingSession

        listing = Path(default_corpus_dir()) / "dotprod_unknown_sm80.sass"
        request = request_for_listing(listing.read_text(), default_arch="sm_80")
        restored = AdvisingRequest.from_dict(request.to_dict())
        report = AdvisingSession().lint(restored)
        assert report.ingest is not None
        assert report.ingest["functions"][0]["unknown_opcodes"] == ["CCTL", "QSPC"]
