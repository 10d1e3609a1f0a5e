"""CLI tests for the service-layer surface: --output formats and validation."""

import json

import pytest

from repro.advisor.cli import main as cli_main

CASE = "rodinia/gaussian:thread_increase"


class TestOutputFormats:
    def test_output_json_emits_a_versioned_report(self, capsys):
        assert cli_main(["--case", CASE, "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "advice_report"
        assert payload["kernel"] == "Fan2"
        assert payload["profile"]["instructions"]
        assert payload["blame"]["edges"]

    def test_output_jsonl_single_case_emits_a_result_line(self, capsys):
        assert cli_main(["--case", CASE, "--output", "jsonl"]) == 0
        from repro.api.result import AdvisingResult

        result = AdvisingResult.from_json(capsys.readouterr().out)
        assert result.ok
        assert result.report.kernel == "Fan2"
        assert result.request.case_id == CASE

    def test_output_jsonl_sweep_streams_one_line_per_case(self, capsys):
        assert cli_main(["--all", "--limit", "3", "--output", "jsonl"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(lines) == 3
        assert all(line["kind"] == "advising_result" for line in lines)
        assert sorted(line["index"] for line in lines) == [0, 1, 2]

    def test_removed_json_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--case", CASE, "--json"])
        assert excinfo.value.code == 2

    def test_sweep_json_round_trips_through_result_objects(self, capsys):
        assert cli_main(["--all", "--limit", "2", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        for entry in payload:
            assert entry["ok"]
            assert entry["report"]["kind"] == "advice_report"


class TestSimulationScope:
    def test_unknown_scope_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--case", CASE, "--scope", "per_warp"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_scope_reaches_the_result(self, capsys):
        # A grid-limited case keeps the whole-GPU run cheap: its single
        # under-full wave simulates fewer blocks than one full wave would.
        assert cli_main([
            "--case", "rodinia/particlefilter:block_increase",
            "--scope", "whole_gpu", "--output", "jsonl", "--sample-period", "32",
        ]) == 0
        from repro.api.result import AdvisingResult

        result = AdvisingResult.from_json(capsys.readouterr().out)
        assert result.ok
        assert result.simulation_scope == "whole_gpu"
        assert result.report.profile.statistics.simulation_scope == "whole_gpu"


class TestValidation:
    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_nonpositive_top_is_rejected(self, top, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--case", CASE, "--top", top])
        assert excinfo.value.code == 2
        assert "--top must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("period", ["0", "-8"])
    def test_nonpositive_sample_period_is_rejected(self, period, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--case", CASE, "--sample-period", period])
        assert excinfo.value.code == 2
        assert "--sample-period must be positive" in capsys.readouterr().err

    def test_zero_jobs_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--all", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_unknown_case_fails_with_a_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--case", "no/such:case"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark case 'no/such:case'" in err
        assert "KeyError" not in err
