"""The SM simulator core: pinned results and the packed layout.

``golden/sm_digests.json`` holds the sha256 of every field of each pinned
run's :class:`~repro.sampling.vector.SimulationResult`
(:func:`facts_digest`).  The digests were recorded from the object-model
reference core that versions before 8.0 kept beside this one, while the
two still agreed bit for bit.  Regenerate them after an intended change,
and review the diff::

    PYTHONPATH=src python tests/sampling/test_vector.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.arch.machine import VoltaV100
from repro.sampling.memory import coalesce, sector_pattern
from repro.sampling.trace import generate_warp_trace
from repro.sampling.vector import VectorSMSimulator, _scan_orders
from repro.structure.program import build_program_structure

GOLDEN = Path(__file__).parent / "golden" / "sm_digests.json"

#: Uncapped length of the toy run under each memory model.
FULL_CYCLES = {"flat": 5801, "hierarchy": 6158}


def _pinned_runs() -> dict:
    """``{run name: (warps, simulator keywords, sm_id)}`` of every pinned run."""
    runs = {}
    for model in ("flat", "hierarchy"):
        for period in (8, 32, 128):
            runs[f"{model}/period={period}"] = (
                8, {"sample_period": period, "memory_model": model}, 0
            )
    runs["flat/period=4/sm_id=7"] = (8, {"sample_period": 4}, 7)
    # Fewer warps than schedulers: some schedulers have no warps to scan
    # or sample.
    for warps in (1, 3):
        runs[f"flat/period=4/warps={warps}"] = (warps, {"sample_period": 4}, 0)
    # ``max_cycles`` clamps the skip-ahead target and the gap samples run up
    # to it, so runs cut short are pinned too.
    for model in ("flat", "hierarchy"):
        full = FULL_CYCLES[model]
        caps = {"half": full // 2, "full-1": full - 1, "full": full}
        for period in (4, 32):
            for cap in (1, 7, 50, 333, 1000, "half", "full-1", "full"):
                runs[f"{model}/period={period}/cap={cap}"] = (8, {
                    "sample_period": period,
                    "memory_model": model,
                    "max_cycles": caps.get(cap, cap),
                }, 0)
    return runs


PINNED_RUNS = _pinned_runs()
SAMPLE_PERIOD_RUNS = [name for name in PINNED_RUNS if name.count("/") == 1]
CAPPED_RUNS = [name for name in PINNED_RUNS if "/cap=" in name]


def build_traces(cubin, kernel, workload, num_warps, warps_per_block=4):
    structure = build_program_structure(cubin)
    traces, blocks = [], []
    for warp in range(num_warps):
        traces.append(
            generate_warp_trace(structure, kernel, workload, VoltaV100, warp, num_warps)
        )
        blocks.append(warp // warps_per_block)
    return traces, blocks


@pytest.fixture(scope="module")
def toy_traces(toy_cubin, toy_workload):
    return build_traces(toy_cubin, "toy_kernel", toy_workload, num_warps=8)


def result_facts(result):
    """Everything a SimulationResult reports, in comparable form.

    The counters compare as ordered item lists: results serialize without
    sorting, so their first-sample insertion order is part of the output.
    """
    memory = result.memory.to_dict() if result.memory is not None else None
    return (
        result.kernel,
        result.wave_cycles,
        [(key, list(reasons.items())) for key, reasons in result.stall_counts.items()],
        list(result.issue_counts.items()),
        result.active_samples,
        result.latency_samples,
        result.issued_instructions,
        [dataclasses.astuple(sample) for sample in result.samples],
        memory,
    )


def facts_digest(result) -> str:
    """sha256 of :func:`result_facts`, dumped as JSON without sorting."""
    text = json.dumps(result_facts(result), default=lambda reason: reason.value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pinned(name, toy_cubin, toy_workload):
    """One pinned run, with raw samples kept."""
    warps, kwargs, sm_id = PINNED_RUNS[name]
    traces, blocks = build_traces(toy_cubin, "toy_kernel", toy_workload, warps)
    result = VectorSMSimulator(VoltaV100, keep_samples=True, **kwargs).simulate(
        "toy_kernel", traces, blocks, sm_id=sm_id
    )
    return result, traces


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


class TestPinnedResults:
    """Every field of every pinned run matches its recorded digest."""

    @pytest.mark.parametrize("name", SAMPLE_PERIOD_RUNS)
    def test_sample_periods(self, pinned, toy_cubin, toy_workload, name):
        result, _ = run_pinned(name, toy_cubin, toy_workload)
        assert facts_digest(result) == pinned[name]

    def test_sm_id(self, pinned, toy_cubin, toy_workload):
        name = "flat/period=4/sm_id=7"
        result, _ = run_pinned(name, toy_cubin, toy_workload)
        assert facts_digest(result) == pinned[name]
        assert all(sample.sm_id == 7 for sample in result.samples)

    @pytest.mark.parametrize("num_warps", [1, 3])
    def test_idle_schedulers(self, pinned, toy_cubin, toy_workload, num_warps):
        assert num_warps < VoltaV100.schedulers_per_sm
        name = f"flat/period=4/warps={num_warps}"
        result, traces = run_pinned(name, toy_cubin, toy_workload)
        assert facts_digest(result) == pinned[name]
        assert result.issued_instructions == sum(len(trace) for trace in traces)

    def test_every_run_is_pinned(self, pinned):
        assert sorted(pinned) == sorted(PINNED_RUNS)


class TestCycleCap:
    @pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
    def test_full_run_length(self, toy_traces, memory_model):
        traces, blocks = toy_traces
        result = VectorSMSimulator(VoltaV100, memory_model=memory_model).simulate(
            "toy_kernel", traces, blocks
        )
        assert result.wave_cycles == FULL_CYCLES[memory_model]

    @pytest.mark.parametrize("name", CAPPED_RUNS)
    def test_truncated_run(self, pinned, toy_cubin, toy_workload, name):
        result, _ = run_pinned(name, toy_cubin, toy_workload)
        assert facts_digest(result) == pinned[name]
        assert result.wave_cycles <= PINNED_RUNS[name][1]["max_cycles"]


class TestObservationNeutrality:
    @pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
    def test_sampling_never_perturbs_execution(self, toy_traces, memory_model):
        """Execution facts are identical across sample periods 8/32/128."""
        traces, blocks = toy_traces
        facts = []
        for period in (8, 32, 128):
            result = VectorSMSimulator(
                VoltaV100, sample_period=period, memory_model=memory_model
            ).simulate("toy_kernel", traces, blocks)
            memory = result.memory.to_dict() if result.memory is not None else None
            facts.append(
                (result.wave_cycles, result.issued_instructions, memory)
            )
        assert facts[0] == facts[1] == facts[2]


class TestSectorPattern:
    """The issue path shifts a phase-relative pattern; it must equal direct
    coalescing at every phase a whole-GPU trace can hit."""

    @pytest.mark.parametrize("stride", [1, 4, 8, 32, 36, 128])
    def test_shifted_pattern_matches_coalescing_at_every_phase(self, stride):
        sector_bytes = VoltaV100.memory.sector_bytes
        warp_size = VoltaV100.warp_size
        assert sector_bytes == 32
        for phase in range(sector_bytes):
            address = 0x1000 + phase
            pattern = sector_pattern(phase, stride, warp_size, sector_bytes)
            shifted = [address - phase + sector for sector in pattern]
            assert shifted == coalesce(address, stride, warp_size, sector_bytes), (
                phase, stride,
            )


class TestScanOrders:
    @pytest.mark.parametrize("num_warps", [1, 3, 4])
    def test_next_slot_starts_the_order_at_the_next_warp(self, num_warps):
        # Scheduler 2's warps on an SM with 4 schedulers.
        warps = range(2, 2 + 4 * num_warps, 4)
        orders = _scan_orders(warps)
        assert len(orders) == num_warps
        for start, order in enumerate(orders):
            assert [warp for _, warp in order] == list(warps[start:]) + list(warps[:start])
            for next_slot, warp in order:
                following = warps[(warps.index(warp) + 1) % num_warps]
                assert orders[next_slot][0][1] == following


def write_golden() -> None:
    """Re-record every pinned run."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from conftest import build_toy_cubin, build_toy_workload

    cubin, workload = build_toy_cubin().build(), build_toy_workload()
    digests = {
        name: facts_digest(run_pinned(name, cubin, workload)[0]) for name in PINNED_RUNS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
