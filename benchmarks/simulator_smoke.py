"""Simulator throughput smoke benchmark.

Profiles a small subset of the :mod:`bench_pipeline_batch` cases and two
MSHR-bound registry cases (baseline and hand-optimized variants,
sequential, no cache) and reports simulator throughput as *simulated
cycles per wall second*: the cycles the simulator
actually walked (``wave_cycles`` for the single-wave scope, the sum of
every SM's cycles across every wave for the whole-GPU scope) divided by the
time spent inside :meth:`AdvisingSession.profile`.

By default the smoke measures the **pinned suite** — one block per
configuration the regression gate watches:

* ``single_wave`` + ``flat`` over 3 cases — the cheap extrapolating path
  every CI run and most users exercise;
* ``whole_gpu`` + ``hierarchy`` over 1 case — the expensive path (full-grid
  dispatch through the L1/L2/DRAM model), so a slow-down that only affects
  the detailed engines cannot land silently;
* ``single_wave`` + ``hierarchy`` over the two cases whose launches are
  bound by L1 MSHRs (``Minimod:code_reorder`` and
  ``ExaTENSOR:memory_transaction_reduction``) — it measures how throttled
  warps wake up: a core that rechecks a throttled warp every cycle, or at
  every MSHR retirement, runs it at about half the rate.

Every block runs on the production (packed-array) core and records
``"simulator_backend": "vector"``, so its identity stays comparable with
gate references and history lines measured when a second core was pinned
too.

The result is written as JSON — by default to ``BENCH_simulator.json`` at
the repository root — so CI can track the simulator's perf trajectory run
over run::

    PYTHONPATH=src python benchmarks/simulator_smoke.py --repeat 3
    PYTHONPATH=src python benchmarks/simulator_smoke.py \
        --scope whole_gpu --memory-model hierarchy --cases 1 \
        --output /tmp/bench.json

Passing any of ``--scope``/``--memory-model``/``--cases``/``--sample-period``
measures just that one configuration instead of the pinned suite.  ``--repeat N`` runs one unrecorded warm-up pass and then ``N``
measured passes per block, reporting the **median** throughput (the
regression gate always compares the headline ``cycles_per_second``, so a
median-of-N reference absorbs runner noise).  ``--profile`` prints a
cProfile hot-spot table per block to stderr instead of gating numbers.

The workload is deterministic (fixed case list, fixed sample period), so
throughput changes reflect simulator changes, not workload drift.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from bench_pipeline_batch import CASES

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.sampling.gpu import GpuSimulationResult
from repro.sampling.memory import MEMORY_MODELS
from repro.sampling.profiler import SIMULATION_SCOPES

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
#: The bench_pipeline_batch subset the smoke run profiles.
SMOKE_CASES = CASES[:3]
#: The pinned configurations (scope, memory model, case ids).  The
#: whole-GPU + hierarchy block walks ~70x more simulated cycles per case, so
#: it pins one case.  The single-wave + hierarchy block pins the two
#: MSHR-bound cases.
SMOKE_SUITE = (
    ("single_wave", "flat", SMOKE_CASES),
    ("whole_gpu", "hierarchy", SMOKE_CASES[:1]),
    ("single_wave", "hierarchy",
     ("Minimod:code_reorder", "ExaTENSOR:memory_transaction_reduction")),
)


def run_once(case_ids, sample_period: int, simulation_scope: str,
             memory_model: str) -> dict:
    """Profile every case variant once; return the throughput summary."""
    session = AdvisingSession(
        sample_period=sample_period, simulation_scope=simulation_scope,
        memory_model=memory_model,
    )
    per_case = []
    simulated_cycles = 0
    wall_seconds = 0.0
    for case_id in case_ids:
        for variant in ("baseline", "optimized"):
            started = time.perf_counter()
            profiled = session.profile(request_for_case(case_id, variant))
            elapsed = time.perf_counter() - started
            simulation = profiled.simulation
            if isinstance(simulation, GpuSimulationResult):
                # Whole-GPU runs walk every SM of every wave; count all of it.
                cycles = simulation.simulated_sm_cycles
            else:
                cycles = profiled.profile.statistics.wave_cycles
            simulated_cycles += cycles
            wall_seconds += elapsed
            per_case.append(
                {
                    "case": case_id,
                    "variant": variant,
                    "simulated_cycles": cycles,
                    "kernel_cycles": profiled.profile.statistics.kernel_cycles,
                    "seconds": round(elapsed, 4),
                }
            )
    return {
        "simulation_scope": simulation_scope,
        "memory_model": memory_model,
        "simulator_backend": "vector",
        "sample_period": sample_period,
        "cases": list(case_ids),
        "profiles": per_case,
        "simulated_cycles": simulated_cycles,
        "wall_seconds": round(wall_seconds, 4),
        "cycles_per_second": round(simulated_cycles / wall_seconds) if wall_seconds else 0,
    }


def run_smoke(case_ids, sample_period: int = 8, simulation_scope: str = "single_wave",
              memory_model: str = "flat", repeat: int = 1) -> dict:
    """One measurement block; with ``repeat > 1``, warm up once and report
    the median-throughput pass (plus every pass's rate for trajectory
    plots)."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if repeat > 1:
        # Unrecorded warm-up: first-touch costs (imports, trace generation
        # caches, the registry) land here instead of skewing pass 1.
        run_once(case_ids, sample_period, simulation_scope, memory_model)
    runs = [
        run_once(case_ids, sample_period, simulation_scope, memory_model)
        for _ in range(repeat)
    ]
    rates = sorted(run["cycles_per_second"] for run in runs)
    median_rate = rates[len(rates) // 2]
    block = next(run for run in runs if run["cycles_per_second"] == median_rate)
    if repeat > 1:
        block["repeat"] = repeat
        block["cycles_per_second_runs"] = [run["cycles_per_second"] for run in runs]
    return block


def run_suite(sample_period: int = 8, repeat: int = 1) -> list:
    """Measure every pinned configuration."""
    return [
        run_smoke(
            case_ids,
            sample_period=sample_period,
            simulation_scope=scope,
            memory_model=memory_model,
            repeat=repeat,
        )
        for scope, memory_model, case_ids in SMOKE_SUITE
    ]


def profile_block(case_ids, sample_period, simulation_scope, memory_model,
                  top: int = 20) -> None:
    """Run one block under cProfile and print the hottest functions."""
    import cProfile
    import io
    import pstats
    import sys

    profiler = cProfile.Profile()
    profiler.enable()
    run_once(case_ids, sample_period, simulation_scope, memory_model)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print(
        f"--- cProfile [{simulation_scope}+{memory_model}] ---",
        file=sys.stderr,
    )
    print(stream.getvalue(), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT), metavar="PATH",
                        help="where to write the JSON summary")
    parser.add_argument("--cases", type=int, default=None, metavar="N",
                        help="how many smoke cases to run (single-measurement mode)")
    parser.add_argument("--sample-period", type=int, default=None)
    parser.add_argument("--scope", default=None,
                        choices=SIMULATION_SCOPES, dest="simulation_scope")
    parser.add_argument("--memory-model", default=None,
                        choices=MEMORY_MODELS, dest="memory_model")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="measured passes per block after one warm-up "
                             "pass; the median pass is reported (default 1, "
                             "no warm-up)")
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile hot-spot table per block to "
                             "stderr instead of writing gate numbers")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    single_config = any(
        value is not None
        for value in (args.cases, args.simulation_scope,
                      args.memory_model, args.sample_period)
    )
    period = args.sample_period if args.sample_period is not None else 8

    if args.profile:
        if single_config:
            plan = [(
                args.simulation_scope or "single_wave",
                args.memory_model or "flat",
                SMOKE_CASES[:args.cases] if args.cases is not None else SMOKE_CASES,
            )]
        else:
            plan = SMOKE_SUITE
        for scope, memory_model, case_ids in plan:
            profile_block(case_ids, period, scope, memory_model)
        return 0

    if single_config:
        measurements = [
            run_smoke(
                SMOKE_CASES[: args.cases if args.cases is not None else len(SMOKE_CASES)],
                sample_period=period,
                simulation_scope=args.simulation_scope or "single_wave",
                memory_model=args.memory_model or "flat",
                repeat=args.repeat,
            )
        ]
    else:
        measurements = run_suite(sample_period=period, repeat=args.repeat)
    summary = {
        "benchmark": "simulator_smoke",
        "python": platform.python_version(),
        "measurements": measurements,
    }
    Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    for block in measurements:
        print(
            f"[{block['simulation_scope']}+{block['memory_model']}] "
            f"{len(block['profiles'])} profiles, "
            f"{block['simulated_cycles']} simulated cycles in "
            f"{block['wall_seconds']:.2f}s -> "
            f"{block['cycles_per_second']:,} cycles/s"
        )
    print(f"-> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
