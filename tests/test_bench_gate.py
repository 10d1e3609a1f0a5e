"""The simulator benchmark regression gate: pairing, backend labels, medians.

These tests drive :mod:`benchmarks.check_simulator_regression` (and the
median-of-repeats selection in :mod:`benchmarks.simulator_smoke`) on
synthetic summaries — no simulation runs — so the gate logic that CI
depends on is itself under tier-1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(module_name):
    if str(BENCHMARKS) not in sys.path:
        # simulator_smoke imports its sibling bench_pipeline_batch by name.
        sys.path.insert(0, str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        module_name, BENCHMARKS / f"{module_name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return load("check_simulator_regression")


def block(scope="single_wave", memory_model="flat", backend="vector",
          cases=("a", "b"), rate=100_000, **extra):
    payload = {
        "simulation_scope": scope,
        "memory_model": memory_model,
        "simulator_backend": backend,
        "sample_period": 8,
        "cases": list(cases),
        "cycles_per_second": rate,
    }
    payload.update(extra)
    return payload


def summary(*blocks):
    return {"benchmark": "simulator_smoke", "measurements": list(blocks)}


class TestBackendIdentity:
    def test_backends_pair_independently(self, gate):
        reference = summary(block(backend="vector", rate=200_000),
                            block(backend="object", rate=100_000))
        fresh = summary(block(backend="object", rate=99_000),
                        block(backend="vector", rate=198_000))
        assert gate.check(fresh, reference, max_drop=0.30) == ""

    def test_vector_regression_fails_even_when_object_holds(self, gate):
        reference = summary(block(backend="vector", rate=200_000),
                            block(backend="object", rate=100_000))
        fresh = summary(block(backend="object", rate=100_000),
                        block(backend="vector", rate=120_000))
        error = gate.check(fresh, reference, max_drop=0.30)
        assert "backend=vector" in error
        assert "regressed" in error

    def test_missing_vector_block_fails(self, gate):
        """A fresh run that lost the vector core cannot pass on object alone."""
        reference = summary(block(backend="vector"), block(backend="object"))
        fresh = summary(block(backend="object"))
        error = gate.check(fresh, reference, max_drop=0.30)
        assert "no measurement" in error
        assert "backend=vector" in error

    def test_reference_without_vector_block_is_rejected(self, gate):
        reference = summary(block(backend="object"))
        fresh = summary(block(backend="object"), block(backend="vector"))
        error = gate.check(fresh, reference, max_drop=0.30)
        assert "no vector-backend block" in error

    def test_legacy_blocks_imply_the_object_core(self, gate):
        legacy = block(backend="object")
        del legacy["simulator_backend"]
        explicit = block(backend="object")
        assert gate.identity_of(legacy) == gate.identity_of(explicit)
        assert gate.identity_of(legacy) != gate.identity_of(block(backend="vector"))


class TestMedianOfRepeats:
    def test_run_smoke_reports_the_median_pass(self, gate, monkeypatch):
        smoke = load("simulator_smoke")
        rates = iter([999_999, 100_000, 400_000, 200_000])  # warm-up first

        def fake_run_once(case_ids, sample_period, scope, memory_model):
            return block(rate=next(rates), cases=case_ids)

        monkeypatch.setattr(smoke, "run_once", fake_run_once)
        measured = smoke.run_smoke(["a", "b"], repeat=3)
        assert measured["cycles_per_second"] == 200_000
        assert measured["repeat"] == 3
        assert measured["cycles_per_second_runs"] == [100_000, 400_000, 200_000]

    def test_single_repeat_skips_the_warm_up(self, gate, monkeypatch):
        smoke = load("simulator_smoke")
        calls = []

        def fake_run_once(case_ids, sample_period, scope, memory_model):
            calls.append(1)
            return block(rate=123, cases=case_ids)

        monkeypatch.setattr(smoke, "run_once", fake_run_once)
        measured = smoke.run_smoke(["a"], repeat=1)
        assert len(calls) == 1
        assert "repeat" not in measured
        assert measured["cycles_per_second"] == 123

    def test_bad_repeat_rejected(self, gate):
        smoke = load("simulator_smoke")
        with pytest.raises(ValueError, match="repeat"):
            smoke.run_smoke(["a"], repeat=0)


class TestHistoryAppend:
    def test_every_gated_run_is_recorded_pass_or_fail(self, gate, tmp_path):
        import json

        path = tmp_path / "BENCH_history.jsonl"
        fresh = summary(block(backend="vector", rate=200_000),
                        block(backend="object", rate=100_000))
        gate.append_history(path, gate.history_entry(fresh, "", "2026-08-08T03:23:00Z"))
        gate.append_history(path, gate.history_entry(fresh, "regressed 40%",
                                                     "2026-08-09T03:23:00Z"))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["gate"] for entry in lines] == ["ok", "fail"]
        assert all(entry["benchmark"] == "simulator_smoke" for entry in lines)
        first = lines[0]["blocks"]
        assert len(first) == 2
        assert {b["simulator_backend"] for b in first} == {"vector", "object"}
        assert all(b["cycles_per_second"] for b in first)

    def test_history_entries_keep_only_identity_and_rate(self, gate):
        noisy = block(backend="vector", rate=1, cycles_per_second_runs=[1, 2, 3],
                      wall_seconds=9.9)
        entry = gate.history_entry(summary(noisy), "", "now")
        (recorded,) = entry["blocks"]
        assert "cycles_per_second_runs" not in recorded
        assert "wall_seconds" not in recorded
        assert recorded["cycles_per_second"] == 1

    def test_cli_appends_history_even_on_gate_failure(self, gate, tmp_path):
        import json

        reference = summary(block(backend="vector", rate=200_000))
        fresh = summary(block(backend="vector", rate=50_000))
        fresh_path = tmp_path / "fresh.json"
        reference_path = tmp_path / "reference.json"
        fresh_path.write_text(json.dumps(fresh))
        reference_path.write_text(json.dumps(reference))
        history = tmp_path / "history" / "BENCH_history.jsonl"

        status = gate.main([str(fresh_path), "--reference", str(reference_path),
                            "--append-history", str(history)])
        assert status == 1  # the gate verdict is unchanged
        (entry,) = [json.loads(line) for line in history.read_text().splitlines()]
        assert entry["gate"] == "fail"
        assert entry["recorded"].endswith("Z")
