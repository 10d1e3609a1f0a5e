"""Tests for the static analyzer, the report format, session analysis and the CLI."""

import json

import pytest

from repro.advisor.cli import main as cli_main
from repro.advisor.report import render_report
from repro.advisor.static_analyzer import StaticAnalyzer
from repro.api.request import AdvisingRequest
from repro.api.session import AdvisingSession
from repro.sampling.profiler import Profiler


class TestStaticAnalyzer:
    def test_analysis_contains_structure_arch_and_disassembly(self, toy_cubin):
        analysis = StaticAnalyzer().analyze(toy_cubin)
        assert analysis.architecture.arch_flag == "sm_70"
        assert "toy_kernel" in analysis.structure.functions
        assert "LDG" in analysis.listing("toy_kernel")

    def test_unknown_arch_flag_falls_back_to_default(self, toy_cubin):
        toy_cubin_copy = type(toy_cubin)(arch_flag="sm_123", functions=dict(toy_cubin.functions))
        with pytest.warns(UserWarning, match="unknown architecture flag"):
            analysis = StaticAnalyzer().analyze(toy_cubin_copy)
        assert analysis.architecture.arch_flag == "sm_70"


class TestAdviceReport:
    def test_advice_is_sorted_by_estimated_speedup(self, toy_report):
        applicable = [item for item in toy_report.advice if item.applicable]
        speedups = [item.estimated_speedup for item in applicable]
        assert speedups == sorted(speedups, reverse=True)

    def test_report_covers_all_registered_optimizers(self, toy_report):
        # Table 2's eleven plus the Memory Coalescing optimizer.
        assert len(toy_report.advice) == 12

    def test_render_includes_figure8_elements(self, toy_report):
        text = render_report(toy_report)
        assert "GPA advice report" in text
        assert "estimate speedup" in text
        assert "ratio" in text
        assert "toy_kernel" in text

    def test_top_limits_the_number_of_suggestions(self, toy_report):
        assert len(toy_report.top(2)) == 2

    def test_to_dict_is_json_serializable(self, toy_report):
        payload = json.loads(json.dumps(toy_report.to_dict()))
        assert payload["kernel"] == "toy_kernel"
        assert len(payload["advice"]) == 12
        assert payload["totals"]["total_samples"] > 0


class TestSessionAnalysis:
    def test_advise_equals_profile_plus_analyze(
        self, session, toy_cubin, toy_config, toy_workload
    ):
        request = AdvisingRequest(
            source="binary", cubin=toy_cubin, kernel="toy_kernel",
            config=toy_config, workload=toy_workload,
        )
        report = session.report_for(request)
        assert report.kernel == "toy_kernel"
        assert report.advice
        staged = session.advise_profiled(session.profile(request))
        assert staged.to_dict() == report.to_dict()

    def test_analyze_offline_profile(self, toy_cubin, toy_config, toy_workload, tmp_path):
        """The offline workflow: dump the profile + binary, reload, analyze."""
        from repro.cubin.binary import Cubin
        from repro.structure.program import build_program_structure

        profiler = Profiler(sample_period=8)
        profiled = profiler.profile(toy_cubin, "toy_kernel", toy_config, toy_workload)
        profile_path = Profiler.dump(profiled, tmp_path)
        restored_profile = Profiler.load_profile(profile_path)
        restored_cubin = Cubin.from_json((tmp_path / "toy_module.json").read_text())
        report = AdvisingSession().analyze(
            restored_profile, build_program_structure(restored_cubin)
        )
        assert report.advice
        assert report.profile.total_samples == profiled.profile.total_samples


class TestCli:
    def test_list_cases(self, capsys):
        assert cli_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "rodinia/hotspot" in output
        assert "GPUStrengthReductionOptimizer" in output

    def test_case_report_text(self, capsys):
        assert cli_main(["--case", "rodinia/gaussian:thread_increase", "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "GPA advice report for kernel Fan2" in output

    def test_case_report_json(self, capsys):
        assert cli_main(["--case", "rodinia/gaussian:thread_increase", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "Fan2"

    def test_no_arguments_shows_help(self, capsys):
        assert cli_main([]) == 2

    def test_arch_flag_threads_through_to_the_report(self, capsys):
        case = "rodinia/gaussian:thread_increase"
        assert cli_main(["--case", case, "--output", "json", "--arch", "sm_70"]) == 0
        volta = json.loads(capsys.readouterr().out)
        assert cli_main(["--case", case, "--output", "json", "--arch", "sm_75"]) == 0
        turing = json.loads(capsys.readouterr().out)
        # Turing's halved warp slots change the launch statistics.
        assert volta["statistics"] != turing["statistics"]

    def test_unknown_arch_flag_is_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["--case", "rodinia/hotspot:strength_reduction", "--arch", "sm_1"])

    def test_offline_profile_cubin_json_round_trip(
        self, toy_cubin, toy_config, toy_workload, tmp_path, capsys
    ):
        """Dump through the profiler, reload through the CLI, compare totals."""
        profiler = Profiler(sample_period=8)
        profiled = profiler.profile(toy_cubin, "toy_kernel", toy_config, toy_workload)
        profile_path = Profiler.dump(profiled, tmp_path)
        cubin_path = tmp_path / "toy_module.json"
        assert (
            cli_main(
                ["--profile", str(profile_path), "--cubin", str(cubin_path), "--output", "json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "toy_kernel"
        assert payload["totals"]["total_samples"] == profiled.profile.total_samples
        assert payload["advice"]

    def test_case_and_all_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--all", "--case", "rodinia/hotspot:strength_reduction"])
        assert excinfo.value.code == 2
        assert "--case cannot be combined with --all" in capsys.readouterr().err

    def test_profile_and_all_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--all", "--profile", "p.json", "--cubin", "c.json"])
        assert excinfo.value.code == 2
        assert "--profile/--cubin cannot be combined with --all" in capsys.readouterr().err

    def test_limit_without_all_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--case", "rodinia/hotspot:strength_reduction", "--limit", "2"])
        assert excinfo.value.code == 2
        assert "--limit only applies to --all" in capsys.readouterr().err

    def test_case_and_cubin_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--case", "rodinia/hotspot:strength_reduction", "--cubin", "c.json"])
        assert excinfo.value.code == 2
        assert "--case cannot be combined with --profile/--cubin" in capsys.readouterr().err

    def test_negative_limit_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--all", "--limit", "-2"])
        assert excinfo.value.code == 2
        assert "--limit must be non-negative" in capsys.readouterr().err

    def test_all_sweeps_through_batch_advisor(self, capsys):
        assert cli_main(["--all", "--limit", "2", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        body = captured.out.strip().splitlines()
        # Header, rule, two case rows, blank line, summary.
        assert "2/2 cases ok" in body[-1]
        # The progress counter counts completions, so it is monotonic even
        # when pool workers finish out of submission order.
        counters = [
            int(line.split("/")[0].lstrip("["))
            for line in captured.err.splitlines()
            if line.startswith("[")
        ]
        assert counters == [1, 2]

    def test_all_json_with_cache(self, tmp_path, capsys):
        args = ["--all", "--limit", "2", "--cache-dir", str(tmp_path), "--output", "json"]
        assert cli_main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cli_main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert [entry["report"] for entry in cold] == [
            entry["report"] for entry in warm
        ]
        assert all(entry["ok"] for entry in warm)
