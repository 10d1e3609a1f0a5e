"""The SM simulator core: pinned results and the packed layout.

``golden/sm_digests.json`` holds the sha256 of every field of each pinned
run's :class:`~repro.sampling.vector.SimulationResult`
(:func:`facts_digest`).  The toy-kernel digests were recorded from the
object-model reference core that versions before 8.0 kept beside this
one, while the two still agreed bit for bit.  The ``registry/`` digests
pin every raw sample of a few registry baselines (12.0's core).
Regenerate them after an intended change, and review the diff::

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
from repro.sampling.profiler import Profiler
from repro.sampling.stall_reasons import StallReason
from repro.sampling.trace import (
    _CODE_OF,
    _F_FIXED,
    _F_THROTTLE,
    _F_WAIT,
    _F_WRITE_BAR,
    generate_warp_trace,
)
from repro.sampling.vector import VectorSMSimulator, _scan_orders
from repro.structure.program import build_program_structure
from repro.workloads.registry import case_by_name

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


def _registry_runs() -> dict:
    """``{run name: (case id, profiler keywords)}`` of every pinned registry run.

    The toy runs step one small kernel with no fetch stall, so these pin
    the raw samples of registry kernels as the profiler simulates them:
    nw's 2 warps leave two schedulers idle and meet at ``BAR``; lud's 8
    warps meet at 128 of them; myocyte is the registry's only kernel with
    fetch-stall records.
    """
    runs = {}
    for case in ("rodinia/nw:warp_balance", "rodinia/lud:code_reorder"):
        for model in ("flat", "hierarchy"):
            runs[f"registry/{case}/{model}/period=1"] = (
                case, {"sample_period": 1, "memory_model": model}
            )
    case = "rodinia/myocyte:function_splitting"
    runs[f"registry/{case}/flat/period=7"] = (case, {"sample_period": 7})
    # Cut off partway through (lud runs ~15,000-17,000 cycles).
    case = "rodinia/lud:code_reorder"
    for model in ("flat", "hierarchy"):
        runs[f"registry/{case}/{model}/period=3/cap=5000"] = (
            case, {"sample_period": 3, "memory_model": model, "max_cycles": 5000}
        )
    return runs


REGISTRY_RUNS = _registry_runs()


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


def run_registry(name):
    """One pinned registry run, simulated as the single-wave scope does, with
    raw samples kept."""
    case_id, kwargs = REGISTRY_RUNS[name]
    setup = case_by_name(case_id).build_baseline()
    return Profiler(keep_samples=True, **kwargs).profile(
        setup.cubin, setup.kernel, setup.config, setup.workload
    ).simulation


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
        assert sorted(pinned) == sorted([*PINNED_RUNS, *REGISTRY_RUNS])


class TestRegistryRawSamples:
    """Every raw sample of registry baselines matches its recorded digest."""

    @pytest.mark.parametrize("name", list(REGISTRY_RUNS))
    def test_raw_samples(self, pinned, name):
        result = run_registry(name)
        assert result.samples
        assert facts_digest(result) == pinned[name]
        max_cycles = REGISTRY_RUNS[name][1].get("max_cycles")
        if max_cycles is not None:
            assert result.wave_cycles == max_cycles


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


#: The hand-built kernel's site table: one site per op.
WAIT_SITES = tuple(("wait_kernel", offset) for offset in (0, 16, 32, 48, 64))


def _record(site, flags, wait=(), used=(), write_barrier=None, fixed_latency=0,
            defined=(), reason=StallReason.EXECUTION_DEPENDENCY, mem_inc=0):
    """A packed record (layout in docs/SIMULATOR.md) with a one-cycle stall,
    no fetch stall and no memory access."""
    return (flags, wait, used, write_barrier, None, 1, fixed_latency, defined,
            _CODE_OF[reason], WAIT_SITES[site][1], 0, mem_inc, 0, 0, 0, 0,
            site, WAIT_SITES)


class TestWaitMask:
    """The wait-mask semantics that the scan's inline path (the wait mask is
    the op's only check flag) and ``check()`` (the op also carries the
    throttle flag, which the flat budget never refuses here) must share,
    pinned on a hand-built trace.

    Ops 0 and 1 set barriers 0 and 1 (clearing at ``clears``, with
    MEMORY_DEPENDENCY and TEXTURE), op 2 sets R5 ready at cycle 15, op 3
    waits on ``mask`` and reads R5, and op 4 keeps the warp live (a
    finished warp is not sampled).  One warp on one scheduler, sampled
    every cycle, so every sample from cycle 3 on reports op 3's state.
    """

    @pytest.mark.parametrize("extra_flag", [0, _F_THROTTLE], ids=["inline", "check"])
    @pytest.mark.parametrize("clears, mask, reason", [
        pytest.param((10, 10), (0, 1), StallReason.MEMORY_DEPENDENCY, id="tie-mask-0-1"),
        pytest.param((10, 10), (1, 0), StallReason.TEXTURE, id="tie-mask-1-0"),
        pytest.param((12, 8), (1, 0), StallReason.MEMORY_DEPENDENCY, id="bar0-later"),
        pytest.param((8, 12), (0, 1), StallReason.TEXTURE, id="bar1-later"),
    ])
    def test_barrier_then_scoreboard_then_issue(self, clears, mask, reason, extra_flag):
        trace = [
            _record(0, _F_WRITE_BAR, write_barrier=0, mem_inc=clears[0],
                    reason=StallReason.MEMORY_DEPENDENCY),
            _record(1, _F_WRITE_BAR, write_barrier=1, mem_inc=clears[1] - 1,
                    reason=StallReason.TEXTURE),
            _record(2, _F_FIXED, fixed_latency=13, defined=(5,)),
            _record(3, _F_WAIT | _F_FIXED | extra_flag, wait=mask, used=(5,),
                    fixed_latency=4, defined=(6,)),
            _record(4, _F_FIXED),
        ]
        architecture = dataclasses.replace(VoltaV100, schedulers_per_sm=1)
        result = VectorSMSimulator(architecture, sample_period=1, keep_samples=True).simulate(
            "wait_kernel", [trace], [0]
        )
        selected, cleared = StallReason.SELECTED, max(clears)
        expected = [(0, 0, selected, True), (1, 16, selected, True), (2, 32, selected, True)]
        expected += [(cycle, 48, reason, False) for cycle in range(3, cleared)]
        expected += [
            (cycle, 48, StallReason.EXECUTION_DEPENDENCY, False) for cycle in range(cleared, 15)
        ]
        expected.append((15, 48, selected, True))
        assert [
            (sample.cycle, sample.offset, sample.reason, sample.is_active)
            for sample in result.samples
        ] == expected
        assert (result.wave_cycles, result.issued_instructions) == (17, 5)


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
    digests.update((name, facts_digest(run_registry(name))) for name in REGISTRY_RUNS)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
