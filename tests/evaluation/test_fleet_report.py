"""The stdlib HTML dashboard: content, series shaping, empty states."""

import json

from repro.evaluation.fleet.report import (
    bench_pass_series,
    load_bench_history,
    render_report,
    sweep_error_series,
)


def artifact(error=0.07, failures=0, complete=True, key="single_wave+flat+sm_70+p8"):
    return {
        "kind": "fleet_sweep",
        "schema_version": 1,
        "cases": ["a/one", "b/two"],
        "units": 2,
        "complete": complete,
        "missing": [] if complete else [{"case": "b/two", "config": key}],
        "failures_total": failures,
        "configurations": [
            {
                "config": {},
                "key": key,
                "rows": [{"case": "a/one"}],
                "failures": (
                    [{"case": "b/two", "error": "RuntimeError: boom"}]
                    if failures
                    else []
                ),
                "cases_ok": 2 - failures,
                "cases_failed": failures,
                "geomean_achieved": 2.0,
                "geomean_estimated": 1.9,
                "geomean_error": error,
                "mean_error": error,
                "total_samples": 42,
                "total_baseline_cycles": 1000.0,
            }
        ],
    }


def perfbench_line(pass_s=0.4, correct=True):
    """One workload's result line as perfbench prints it."""
    return {
        "correct": correct,
        "attempted": 72,
        "failed": 0 if correct else 1,
        "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                    "latency_ms": {"value": 14.5, "unit": "ms"}},
    }


def history_line(recorded="2026-10-19T03:23:00Z", **workloads):
    return {"recorded": recorded, "commit": "bb6d7ba", "workloads": workloads}


class TestSeriesShaping:
    def test_error_series_tracks_configurations_across_sweeps(self):
        sweeps = [
            ("night-1", artifact(error=0.10)),
            ("night-2", artifact(error=0.05)),
        ]
        series, labels = sweep_error_series(sweeps)
        assert labels == ["night-1", "night-2"]
        assert series["single_wave+flat+sm_70+p8"] == [10.0, 5.0]

    def test_configuration_gaps_become_none(self):
        sweeps = [
            ("night-1", artifact(key="single_wave+flat+sm_70+p8")),
            ("night-2", artifact(key="whole_gpu+hierarchy+sm_70+p8")),
        ]
        series, _ = sweep_error_series(sweeps)
        assert series["single_wave+flat+sm_70+p8"][1] is None
        assert series["whole_gpu+hierarchy+sm_70+p8"][0] is None

    def test_bench_series_plots_pass_s_per_workload(self):
        history = [
            history_line("2026-10-18T03:23:00Z", flat=perfbench_line(0.41),
                         whole_gpu=perfbench_line(0.99)),
            history_line("2026-10-19T03:23:00Z", flat=perfbench_line(0.43)),
        ]
        series, labels = bench_pass_series(history)
        assert labels == ["2026-10-18", "2026-10-19"]
        assert series == {"flat": [0.41, 0.43], "whole_gpu": [0.99, None]}

    def test_an_incorrect_run_is_a_gap(self):
        history = [history_line(flat=perfbench_line(0.2, correct=False))]
        series, _ = bench_pass_series(history)
        assert series == {"flat": [None]}

    def test_history_loader_skips_lines_of_another_shape(self, tmp_path):
        path = tmp_path / "perfbench_history.jsonl"
        good = [history_line("a", flat=perfbench_line()),
                history_line("b", service=perfbench_line())]
        path.write_text("\n".join([
            json.dumps(good[0]),
            "not json at all",
            "",
            # The retired simulator-smoke history format.
            '{"recorded": "x", "gate": "ok", "blocks": [{"cycles_per_second": 1}]}',
            json.dumps({"recorded": "y", "commit": "c", "workloads": {}}),
            json.dumps({"recorded": "z", "workloads": {"flat": perfbench_line()}}),
            json.dumps({"recorded": "w", "commit": "c", "workloads": {"flat": "0.4"}}),
            json.dumps(good[1]),
        ]) + "\n")
        assert load_bench_history(path) == good
        assert load_bench_history(tmp_path / "missing.jsonl") == []


class TestPage:
    def test_full_page_contents(self):
        page = render_report(
            [("night-1", artifact(failures=1, complete=False))],
            bench_history=[history_line(flat=perfbench_line())],
            generated="run 42",
        )
        assert page.startswith("<!DOCTYPE html>")
        assert "Fleet evaluation dashboard" in page
        assert page.count("<svg") == 2  # error trend + perfbench pass time
        assert "perfbench pass time by workload" in page
        assert "prefers-color-scheme: dark" in page
        assert "run 42" in page
        # Failure ledger and incomplete-coverage tile are visible.
        assert "RuntimeError: boom" in page
        assert "incomplete" in page
        # Every chart ships its data-table twin.
        assert page.count("Data table") == 2

    def test_empty_history_renders_without_charts(self):
        page = render_report([])
        assert "Fleet evaluation dashboard" in page
        assert "<svg" not in page

    def test_ninth_series_folds_into_the_table(self):
        # 9 configurations: only the 8 fixed palette slots are plotted; the
        # rest are named in a note and appear in the data table.
        sweeps = [(
            "night-1",
            {
                "configurations": [
                    {"key": f"config-{i}", "cases_ok": 1,
                     "geomean_error": 0.01 * (i + 1)}
                    for i in range(9)
                ],
                "units": 9, "complete": True, "missing": [],
                "failures_total": 0, "cases": [],
            },
        )]
        page = render_report(sweeps)
        assert "1 more series exceed the fixed palette" in page
        assert 'class="line s8"' not in page
        assert "config-8" in page  # still present, in the table
