"""Tests for the evaluation harness (Table 3, Figure 7, Figure 1)."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.session import AdvisingSession
from repro.evaluation import table3 as table3_module
from repro.evaluation import figure1 as figure1_module
from repro.evaluation import figure7 as figure7_module
from repro.evaluation.figure1 import format_figure1, sampling_model_demo
from repro.evaluation.figure7 import FIGURE7_CASES, evaluate_figure7, format_figure7
from repro.evaluation.metrics import (
    ERROR_FLOOR,
    ROW_FIELDS,
    geometric_mean,
    outcome_summary,
    relative_error,
)
from repro.evaluation.table3 import (
    Table3Result,
    evaluate_case,
    evaluate_table3,
    format_table3,
)
from repro.sampling.vector import VectorSMSimulator
from repro.workloads.registry import case_by_name

SUBSET = ["rodinia/backprop:warp_balance", "rodinia/gaussian:thread_increase"]


def row_numbers(row):
    return tuple(getattr(row, name) for name in ROW_FIELDS)


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 1.0

    def test_relative_error(self):
        assert relative_error(1.2, 1.0) == pytest.approx(0.2)
        assert relative_error(1.0, 0.0) == 0.0

    def test_summary_floors_the_error_geomean_only(self):
        outcomes = [
            {"achieved_speedup": 2.0, "estimated_speedup": 2.0, "error": 0.0},
            {"achieved_speedup": 8.0, "estimated_speedup": 4.0, "error": 0.5},
        ]
        summary = outcome_summary(outcomes)
        assert summary["geomean_achieved"] == pytest.approx(4.0)
        assert summary["geomean_estimated"] == pytest.approx(8.0 ** 0.5)
        assert summary["geomean_error"] == pytest.approx((ERROR_FLOOR * 0.5) ** 0.5)
        assert summary["mean_error"] == pytest.approx(0.25)

    def test_mean_error_rounds_once(self):
        """The builtin ``sum()`` gives 0.09999999999999999 before Python
        3.12 and 0.1 from 3.12 on; one rounding gives 0.1 on every version."""
        outcomes = [
            {"achieved_speedup": 1.1, "estimated_speedup": 1.0, "error": 0.1}
        ] * 10
        assert outcome_summary(outcomes)["mean_error"] == 0.1

    def test_summary_of_no_rows(self):
        assert outcome_summary([]) == {
            "geomean_achieved": 1.0,
            "geomean_estimated": 1.0,
            "geomean_error": 1.0,
            "mean_error": 0.0,
        }


class TestTable3:
    @pytest.fixture(scope="class")
    def gaussian_row(self):
        return evaluate_case(case_by_name("rodinia/gaussian:thread_increase"))

    def test_row_contains_achieved_and_estimated_speedups(self, gaussian_row):
        assert gaussian_row.achieved_speedup > 1.0
        assert gaussian_row.estimated_speedup > 1.0
        assert gaussian_row.baseline_cycles > gaussian_row.optimized_cycles
        assert gaussian_row.error >= 0.0

    def test_gaussian_is_the_largest_win_as_in_the_paper(self, gaussian_row):
        assert gaussian_row.achieved_speedup > 2.0

    def test_expected_optimizer_is_ranked(self, gaussian_row):
        assert gaussian_row.optimizer_rank is not None
        assert gaussian_row.optimizer_rank <= 2

    def test_evaluate_subset_and_format(self):
        cases = [case_by_name("rodinia/backprop:warp_balance")]
        result = evaluate_table3(cases)
        assert len(result.rows) == 1
        assert result.geomean_achieved >= 1.0
        text = format_table3(result)
        assert "rodinia/backprop" in text
        assert "geomean" in text

    def test_aggregate_row_prints_the_geometric_mean_error(self):
        # The row is labeled "geomean", so every aggregate in it must be the
        # geometric mean — including the error column (regression: it used
        # to print the arithmetic mean_error under the geomean label).
        cases = [case_by_name("rodinia/backprop:warp_balance"),
                 case_by_name("rodinia/gaussian:thread_increase")]
        result = evaluate_table3(cases)
        assert len(result.rows) == 2
        geomean_line = format_table3(result).splitlines()[-1]
        assert geomean_line.startswith("geomean")
        assert f"{result.geomean_error * 100:6.1f}%" in geomean_line
        if abs(result.geomean_error - result.mean_error) * 100 >= 0.1:
            assert f"{result.mean_error * 100:6.1f}%" not in geomean_line

    def test_simulation_scope_parameter_reaches_the_session(self, monkeypatch):
        seen = []

        class RecordingSession(AdvisingSession):
            def advise_many(self, requests, progress=None):
                seen.append((self.simulation_scope, self.profile_stage.memory_model))
                return []

        monkeypatch.setattr(table3_module, "AdvisingSession", RecordingSession)
        evaluate_table3([], simulation_scope="whole_gpu", memory_model="hierarchy")
        assert seen == [("whole_gpu", "hierarchy")]

    def test_module_runs_without_a_runpy_warning(self):
        # runpy warns when `-m` runs a module its package already imported.
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.evaluation.table3", "--help"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


class TestTable3Pipeline:
    def test_sequential_and_parallel_rows_are_identical(self):
        cases = [case_by_name(name) for name in SUBSET]
        sequential = evaluate_table3(cases, jobs=1)
        parallel = evaluate_table3(cases, jobs=2)
        assert not sequential.failures and not parallel.failures
        assert [row_numbers(row) for row in sequential.rows] == [
            row_numbers(row) for row in parallel.rows
        ]

    def test_warm_cache_run_is_bit_identical_without_simulation(
        self, tmp_path, monkeypatch
    ):
        cases = [case_by_name(name) for name in SUBSET]
        uncached = evaluate_table3(cases)
        cold = evaluate_table3(cases, cache_dir=tmp_path)

        def explode(self, *args, **kwargs):
            raise AssertionError("simulator invoked on a warm cache")

        monkeypatch.setattr(VectorSMSimulator, "simulate", explode)
        warm = evaluate_table3(cases, cache_dir=tmp_path)
        assert not warm.failures
        for reference in (uncached, cold):
            assert [row_numbers(row) for row in reference.rows] == [
                row_numbers(row) for row in warm.rows
            ]

    def test_format_table3_surfaces_failures(self):
        result = Table3Result(failures=[("no/such:case", "KeyError: 'no/such:case'")])
        rendered = format_table3(result)
        assert "1 case(s) FAILED" in rendered
        assert "no/such:case: KeyError" in rendered

    def test_format_table3_tolerates_blank_error_text(self):
        rendered = format_table3(Table3Result(failures=[("x/y:z", " \n")]))
        assert "x/y:z: unknown error" in rendered

    def test_failure_lands_in_failures_not_exception(self):
        case = case_by_name(SUBSET[0])
        broken = type(case)(
            name=case.name,
            kernel=case.kernel,
            optimization=case.optimization,
            optimizer_name=case.optimizer_name,
            baseline=lambda: (_ for _ in ()).throw(RuntimeError("broken setup")),
            optimized=case.optimized,
        )
        result = evaluate_table3([broken, case_by_name(SUBSET[1])])
        assert len(result.rows) == 1
        assert len(result.failures) == 1
        assert "broken setup" in result.failures[0][1]

    def test_optimized_variant_failure_lands_in_failures(self):
        case = case_by_name(SUBSET[1])
        # Both setups build; profiling the optimized one fails in the session.
        missing_kernel = dataclasses.replace(
            case,
            name="custom/missing",
            optimized=lambda: dataclasses.replace(
                case.build_optimized(), kernel="no_such_kernel"
            ),
        )
        result = evaluate_table3([missing_kernel, case])
        assert [row.case.case_id for row in result.rows] == [SUBSET[1]]
        ((case_id, error),) = result.failures
        assert case_id == "custom/missing:thread_increase"
        assert "no_such_kernel" in error

    def test_ad_hoc_case_runs_with_two_jobs(self):
        """A case outside the registry travels as binary requests (this one
        serializes, so across the pool); its row equals the row of the
        registry case it was cloned from."""
        case = case_by_name(SUBSET[1])
        clone = dataclasses.replace(case, name="custom/clone")
        result = evaluate_table3([clone, case], jobs=2)
        assert not result.failures
        assert [row.case.case_id for row in result.rows] == [
            "custom/clone:thread_increase",
            SUBSET[1],
        ]
        assert row_numbers(result.rows[0]) == row_numbers(result.rows[1])


class TestHarnessAgreement:
    def test_table3_and_a_fleet_merge_agree_bit_for_bit(self, tmp_path):
        from repro.evaluation.fleet.merge import merge_checkpoints
        from repro.evaluation.fleet.plan import EvaluationPlan, SweepConfiguration
        from repro.evaluation.fleet.runner import ShardRunner

        case_ids = sorted(SUBSET)
        table = evaluate_table3([case_by_name(name) for name in case_ids])
        assert not table.failures

        plan = EvaluationPlan(
            case_ids=tuple(case_ids),
            configurations=(SweepConfiguration(),),
            num_shards=1,
        )
        run = ShardRunner(plan, 0, tmp_path, advisor=AdvisingSession()).run()
        assert run.complete and not run.failed
        (merged,) = merge_checkpoints(plan, [run.checkpoint]).artifact["configurations"]

        assert merged["rows"] == [
            {"case": row.case.case_id, **dict(zip(ROW_FIELDS, row_numbers(row)))}
            for row in table.rows
        ]
        summary = table.summary()
        assert set(summary) == {
            "geomean_achieved", "geomean_estimated", "geomean_error", "mean_error",
        }
        for name, value in summary.items():
            assert merged[name] == value, name


class TestFigure7:
    def test_coverage_rows_for_selected_benchmarks(self):
        cases = [case_by_name("rodinia/kmeans:loop_unrolling"),
                 case_by_name("rodinia/bfs:loop_unrolling")]
        rows = evaluate_figure7(cases)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row.coverage_before <= 1.0
            assert 0.0 <= row.coverage_after <= 1.0
            assert row.coverage_after >= row.coverage_before
            assert row.edges_after <= row.edges_before
        text = format_figure7(rows)
        assert "rodinia/kmeans" in text and "mean" in text

    def test_main_prints_the_figure7_table(self, capsys):
        assert figure7_module.main([]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["Benchmark", "Kernel"]
        benchmarks = [name.split(":")[0] for name in FIGURE7_CASES]
        assert [line.split()[0] for line in lines[2:-2]] == benchmarks
        assert lines[-1].startswith("mean")


class TestFigure1:
    def test_sampling_demo_quantities(self):
        demo = sampling_model_demo(sample_period=8)
        assert demo["total_samples"] == demo["active_samples"] + demo["latency_samples"]
        assert 0.0 <= demo["stall_ratio"] <= 1.0
        assert demo["stall_ratio"] + demo["active_ratio"] == pytest.approx(1.0)
        assert demo["stalls_by_reason"]
        assert demo["simulation_scope"] == "single_wave"

    def test_main_prints_the_demo_statistics(self, capsys):
        assert figure1_module.main([]) == 0
        text = capsys.readouterr().out
        assert text == format_figure1(sampling_model_demo(sample_period=8)) + "\n"
        assert text.startswith("sample period          : 8 cycles\n")
        assert len(text.splitlines()) == 8

    def test_sampling_demo_runs_under_the_whole_gpu_scope(self):
        demo = sampling_model_demo(sample_period=32, simulation_scope="whole_gpu")
        assert demo["simulation_scope"] == "whole_gpu"
        assert demo["total_samples"] == demo["active_samples"] + demo["latency_samples"]
        # The sample stream now comes from every SM, so it is far denser
        # than the single-SM demo at the same period.
        single = sampling_model_demo(sample_period=32)
        assert demo["total_samples"] > single["total_samples"]
        assert demo["kernel_cycles"] >= demo["wave_cycles"]
