"""The paired perfbench gate's verdicts, on synthetic perfbench result lines.

A fake runner stands in for ``perfbench/run.py``, so nothing is simulated:
each test chooses what every base and change run prints and checks what
:mod:`tools.perf_gate` makes of it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BASE, CHANGE = Path("/base"), Path("/change")
BENCHMARK = {
    "workloads": [{"name": "flat"}, {"name": "service"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.15},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", TOOLS / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(latency_ms=10.0, setup_s=0.2, correct=True, failed=0):
    return json.dumps({
        "correct": correct,
        "attempted": 24,
        "failed": failed,
        "metrics": {
            "latency_ms": {"value": latency_ms, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }) + "\n"


class FakeRunner:
    """Prints ``lines[(side, workload)]`` (or the default line) per run and
    records every call as (side, workload, seed)."""

    def __init__(self, lines=None, status=None):
        self.lines = lines or {}
        self.status = status or {}
        self.calls = []

    def __call__(self, root, workload, seed):
        side = "base" if root == BASE else "change"
        self.calls.append((side, workload, seed))
        key = (side, workload)
        return self.status.get(key, 0), self.lines.get(key, result_line())


def run_gate(perf_gate, runner):
    printed = []
    passed = perf_gate.gate(BASE, CHANGE, BENCHMARK, runner, out=printed.append)
    return passed, printed


def verdicts(printed):
    return [line for line in printed if line.startswith(("ok", "FAIL"))]


class TestVerdicts:
    def test_identical_sides_pass(self, perf_gate):
        passed, printed = run_gate(perf_gate, FakeRunner())
        assert passed
        lines = verdicts(printed)
        assert len(lines) == 4  # 2 workloads x 2 metrics
        assert all(line.startswith("ok") for line in lines)
        assert "ok   flat latency_ms: base 10 change 10 ms, ratio 1.000, bound 15%" in lines

    def test_worse_by_more_than_the_bound_fails_naming_workload_and_metric(self, perf_gate):
        runner = FakeRunner({("change", "service"): result_line(latency_ms=11.6)})
        passed, printed = run_gate(perf_gate, runner)
        assert not passed
        (failure,) = [line for line in verdicts(printed) if line.startswith("FAIL")]
        assert failure.startswith("FAIL service latency_ms:")
        assert "ratio 1.160" in failure

    def test_worse_by_less_than_the_bound_passes(self, perf_gate):
        runner = FakeRunner({
            ("change", "flat"): result_line(latency_ms=11.4, setup_s=0.24),
        })
        passed, printed = run_gate(perf_gate, runner)
        assert passed
        assert all(line.startswith("ok") for line in verdicts(printed))

    def test_each_metric_has_its_own_bound(self, perf_gate):
        # +20% is inside setup_s's 25% but outside latency_ms's 15%.
        runner = FakeRunner({("change", "flat"): result_line(latency_ms=12.0, setup_s=0.24)})
        passed, printed = run_gate(perf_gate, runner)
        assert not passed
        failures = [line for line in verdicts(printed) if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failures] == ["FAIL flat latency_ms"]

    def test_the_median_decides_not_one_slow_run(self, perf_gate):
        slow_once = iter([result_line(latency_ms=30.0)])

        class OneSlowRun(FakeRunner):
            def __call__(self, root, workload, seed):
                status, line = super().__call__(root, workload, seed)
                if root == CHANGE and workload == "flat":
                    line = next(slow_once, line)
                return status, line

        passed, _ = run_gate(perf_gate, OneSlowRun())
        assert passed


class TestCorrectness:
    @pytest.mark.parametrize("status,line,reason", [
        (0, result_line(correct=False), "correct is not true"),
        (0, result_line(failed=2), "failed 2"),
        (1, "", "exit status 1"),
        (0, "perfbench: no request succeeded\n", "no JSON result line"),
    ])
    def test_an_incorrect_change_run_fails(self, perf_gate, status, line, reason):
        runner = FakeRunner({("change", "service"): line}, {("change", "service"): status})
        passed, printed = run_gate(perf_gate, runner)
        assert not passed
        assert printed[-1] == f"FAIL service: change run (seed 1): {reason}"

    def test_an_incorrect_base_run_is_an_error_naming_the_base(self, perf_gate):
        runner = FakeRunner({("base", "flat"): result_line(correct=False)})
        with pytest.raises(perf_gate.BaseRunError, match=r"^base /base: flat run \(seed 1\)"):
            run_gate(perf_gate, runner)

    def test_a_missing_metric_is_not_correct(self, perf_gate):
        line = json.dumps({"correct": True, "failed": 0, "metrics": {}})
        passed, printed = run_gate(perf_gate, FakeRunner({("change", "flat"): line}))
        assert not passed
        assert printed[-1].endswith("no latency_ms, setup_s")


class TestPairs:
    def test_first_side_alternates_and_a_pair_shares_a_new_seed(self, perf_gate):
        runner = FakeRunner()
        run_gate(perf_gate, runner)
        calls = runner.calls
        assert len(calls) == perf_gate.PAIRS * 2 * 2  # pairs x workloads x sides
        pairs = [calls[index:index + 2] for index in range(0, len(calls), 2)]
        for first, second in pairs:
            assert first[1:] == second[1:]  # same workload, same seed
            assert {first[0], second[0]} == {"base", "change"}
        firsts = [pair[0][0] for pair in pairs if pair[0][1] == "flat"]
        assert firsts == [("base", "change")[index % 2] for index in range(perf_gate.PAIRS)]
        seeds = [pair[0][2] for pair in pairs if pair[0][1] == "flat"]
        assert len(set(seeds)) == perf_gate.PAIRS


class TestCommandLine:
    def test_a_base_without_perfbench_is_a_usage_error(self, perf_gate, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            perf_gate.main([str(tmp_path)])
        assert excinfo.value.code == 2
        assert "has no perfbench/run.py" in capsys.readouterr().err

    def test_runner_passes_the_run_settings_to_perfbench(self, perf_gate, tmp_path):
        script = tmp_path / "echo_args.py"
        script.write_text("import json, sys\nprint(json.dumps(sys.argv[1:]))\n")
        run = perf_gate.perfbench_runner([sys.executable, str(script)])
        status, stdout = run(tmp_path, "hierarchy", 7)
        assert status == 0
        assert json.loads(stdout) == [
            "--workload", "hierarchy", "--seed", "7",
            "--seconds", str(perf_gate.SECONDS), "--trace", "0",
        ]
