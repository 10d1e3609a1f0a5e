"""End-to-end CLI tests, including the real-SIGKILL resume proof.

The centerpiece mirrors the CI ``fleet-smoke`` leg in miniature: a real
``python -m repro.evaluation.fleet run`` subprocess is SIGKILLed mid-shard
by its own ``--kill-after`` fault injection, resumed from the checkpoint,
and the merged artifact must be byte-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.exitcodes import (
    EXIT_CASES_FAILED,
    EXIT_INCOMPLETE,
    EXIT_INFRA,
    EXIT_OK,
)
from repro.evaluation.fleet.__main__ import main as fleet_main

REPO = Path(__file__).resolve().parent.parent.parent

pytestmark = pytest.mark.xdist_group("fleet_cli")


def fleet(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.evaluation.fleet", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fleet-cli")


class TestKillAndResume:
    """The acceptance criterion, against real processes."""

    @pytest.fixture(scope="class")
    def sweep(self, workdir):
        plan_args = ["plan", "--shards", "1", "--limit", "2",
                     "--scope", "single_wave", "--memory-model", "flat",
                     "--out", "plan.json"]
        assert fleet(plan_args, workdir).returncode == EXIT_OK
        return workdir

    def test_kill_resume_merge_is_byte_identical(self, sweep):
        run = ["run", "--plan", "plan.json", "--checkpoint-dir", "ckpt",
               "--cache-dir", "cache", "--shard", "0"]

        killed = fleet(run + ["--kill-after", "1"], sweep)
        assert killed.returncode == -signal.SIGKILL, killed.stderr

        # Strict merge refuses the torn sweep with the resume exit code and
        # writes nothing.
        merge = ["merge", "--plan", "plan.json", "--checkpoint-dir", "ckpt",
                 "--out", "torn.json"]
        torn = fleet(merge, sweep)
        assert torn.returncode == EXIT_INCOMPLETE, torn.stderr
        assert "resume the shards" in torn.stderr
        assert not (sweep / "torn.json").exists()

        # Resume: exactly the one finished unit is skipped.
        resumed = fleet(run, sweep)
        assert resumed.returncode == EXIT_OK, resumed.stderr
        assert "resuming: 1 of 2" in resumed.stderr

        merged = fleet(["merge", "--plan", "plan.json", "--checkpoint-dir",
                        "ckpt", "--out", "killed.json"], sweep)
        assert merged.returncode == EXIT_OK, merged.stderr

        # Control: the same plan run uninterrupted in a fresh checkpoint dir.
        control = fleet(["run", "--plan", "plan.json",
                         "--checkpoint-dir", "ckpt-clean",
                         "--cache-dir", "cache", "--shard", "0"], sweep)
        assert control.returncode == EXIT_OK, control.stderr
        assert fleet(["merge", "--plan", "plan.json", "--checkpoint-dir",
                      "ckpt-clean", "--out", "clean.json"],
                     sweep).returncode == EXIT_OK
        assert (sweep / "killed.json").read_bytes() == (
            sweep / "clean.json"
        ).read_bytes()

    def test_report_over_the_merged_artifact(self, sweep):
        result = fleet(["report", "--artifact", "killed.json",
                        "--bench", str(REPO / "BENCH_simulator.json"),
                        "--out", "report.html"], sweep)
        assert result.returncode == EXIT_OK, result.stderr
        page = (sweep / "report.html").read_text()
        assert "Fleet evaluation dashboard" in page
        assert "<svg" in page


class TestExitCodes:
    def test_plan_usage_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fleet_main(["plan", "--shards", "0", "--out",
                        str(tmp_path / "p.json")])
        assert excinfo.value.code == 2  # argparse usage

    def test_unknown_arch_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        with pytest.raises(SystemExit) as excinfo:
            fleet_main(["plan", "--arch", "sm_99", "--out", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_unknown_case_is_infra(self, tmp_path, capsys):
        status = fleet_main(["plan", "--case", "rodinia/no-such:case",
                             "--out", str(tmp_path / "p.json")])
        assert status == EXIT_INFRA
        assert "unknown benchmark case" in capsys.readouterr().err

    def test_missing_plan_is_infra(self, tmp_path, capsys):
        status = fleet_main(["run", "--plan", str(tmp_path / "absent.json"),
                             "--shard", "0",
                             "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert status == EXIT_INFRA

    def test_stop_after_exits_incomplete(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert fleet_main(["plan", "--shards", "1", "--limit", "2",
                           "--out", str(plan_path)]) == EXIT_OK
        status = fleet_main(["run", "--plan", str(plan_path), "--shard", "0",
                             "--checkpoint-dir", str(tmp_path / "ckpt"),
                             "--cache-dir", str(tmp_path / "cache"),
                             "--stop-after", "1"])
        assert status == EXIT_INCOMPLETE

    def test_allow_incomplete_merges_partial_coverage(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        fleet_main(["plan", "--shards", "1", "--limit", "2",
                    "--out", str(plan_path)])
        fleet_main(["run", "--plan", str(plan_path), "--shard", "0",
                    "--checkpoint-dir", str(tmp_path / "ckpt"),
                    "--cache-dir", str(tmp_path / "cache"),
                    "--stop-after", "1"])
        out = tmp_path / "partial.json"
        status = fleet_main(["merge", "--plan", str(plan_path),
                             "--checkpoint-dir", str(tmp_path / "ckpt"),
                             "--allow-incomplete", "--out", str(out)])
        assert status == EXIT_INCOMPLETE
        artifact = json.loads(out.read_text())
        assert artifact["complete"] is False
        assert len(artifact["missing"]) == 1

    def test_case_failures_exit_3(self, tmp_path, monkeypatch, capsys):
        from repro.evaluation.fleet import runner as runner_module

        plan_path = tmp_path / "plan.json"
        fleet_main(["plan", "--shards", "1", "--limit", "1",
                    "--out", str(plan_path)])

        def always_fails(advisor, unit):
            raise runner_module.CaseFailure(
                "Traceback ...\nRuntimeError: injected")

        monkeypatch.setattr(runner_module, "evaluate_unit", always_fails)
        status = fleet_main(["run", "--plan", str(plan_path), "--shard", "0",
                             "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert status == EXIT_CASES_FAILED
        # ...and the merge carries the same verdict.
        status = fleet_main(["merge", "--plan", str(plan_path),
                             "--checkpoint-dir", str(tmp_path / "ckpt"),
                             "--out", str(tmp_path / "sweep.json")])
        assert status == EXIT_CASES_FAILED


class TestTable3ExitCodes:
    """The satellite fix: table3 distinguishes red data from a broken run."""

    def test_case_failures_exit_3(self, monkeypatch, capsys):
        from repro.evaluation import table3 as table3_module

        result = table3_module.Table3Result(
            rows=[], failures=[("a/one", "Traceback ...\nRuntimeError: x")]
        )
        monkeypatch.setattr(table3_module, "evaluate_table3",
                            lambda *args, **kwargs: result)
        assert table3_module.main(["--limit", "1"]) == EXIT_CASES_FAILED

    def test_harness_exception_exits_1(self, monkeypatch, capsys):
        from repro.evaluation import table3 as table3_module

        def explodes(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(table3_module, "evaluate_table3", explodes)
        assert table3_module.main(["--limit", "1"]) == EXIT_INFRA
        assert "retry the run" in capsys.readouterr().err

    def test_unknown_arch_is_a_usage_error(self, capsys):
        from repro.evaluation import table3 as table3_module

        with pytest.raises(SystemExit) as excinfo:
            table3_module.main(["--arch", "sm_99"])
        assert excinfo.value.code == 2
        assert "sm_99" in capsys.readouterr().err

    def test_clean_sweep_exits_0(self, tmp_path, capsys):
        from repro.evaluation import table3 as table3_module

        status = table3_module.main(
            ["--limit", "1", "--cache-dir", str(tmp_path / "cache"),
             "--text", str(tmp_path / "table.txt")]
        )
        assert status == EXIT_OK
