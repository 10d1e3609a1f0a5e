#!/usr/bin/env python
"""Paired perfbench regression gate: this tree against a base checkout.

Usage::

    python tools/perf_gate.py BASE

``BASE`` is a checkout of the commit to compare with; CI passes the merge
base.  The change is the tree this script lives in.  For every workload in
``BENCHMARK.json`` the gate runs :data:`PAIRS` pairs of untraced perfbench
runs, one on each side, each side with its own ``perfbench/run.py`` and
``expected.json``.  Both runs of a pair use the same seed, every pair a new
one, and the side that runs first alternates from pair to pair, so a slow
spell on the machine lands on both sides alike.

The gate fails (exit 1) when a run of the change is not correct (a non-zero
exit, ``"correct": false`` or ``"failed" > 0``), or when the change's median
of an end-to-end metric is worse than the base's median by more than that
metric's ``BENCHMARK.json`` bound.  It prints both medians, their ratio, the
bound and a verdict for every workload and metric.  A base run that is not
correct stops the gate with exit 2: there is nothing to compare with.

The run length and the pair count are fixed here, from measured spread.
On a 2-vCPU x86-64 VM (CPython 3.11), five gate runs of two identical
trees all passed, and no change median moved from its base median by more
than 6.3% (``service`` ``latency_ms``; every other ``latency_ms`` and
``pass_s`` at most 4.8%, ``setup_s`` 4.5%, ``peak_rss_mb`` 0.5%), against
bounds of 10% to 25%.  A gate run took 3.5-4 minutes there.  Shorter runs
are too coarse: at ``--seconds 3`` a ``whole_gpu`` run is one pass of three
requests, and eleven such runs of one tree read ``pass_s`` from 0.89 to
1.11 s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

CHANGE_ROOT = Path(__file__).resolve().parent.parent
#: Pairs per workload; each side's metric is the median over its runs.
PAIRS = 5
#: perfbench ``--seconds``: the run length at the reference CPU speed.
SECONDS = 6

#: ``runner(root, workload, seed)`` -> (exit status, stdout) of one run.
Runner = Callable[[Path, str, int], Tuple[int, str]]


class BaseRunError(RuntimeError):
    """A base-side run was not correct, so the base cannot be measured."""


def perfbench_runner(command: List[str]) -> Runner:
    """Run BENCHMARK.json's ``command`` untraced in a checkout's root."""

    def run(root: Path, workload: str, seed: int) -> Tuple[int, str]:
        completed = subprocess.run(
            [*command, "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", "0"],
            cwd=root, stdout=subprocess.PIPE, text=True, check=False,
        )
        return completed.returncode, completed.stdout

    return run


def run_problem(status: int, stdout: str,
                metrics: List[str]) -> Tuple[Optional[dict], str]:
    """The run's result line and ``""``, or ``None`` and why it is not correct."""
    if status != 0:
        return None, f"exit status {status}"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "no JSON result line"
    if not isinstance(result, dict) or result.get("correct") is not True:
        return None, "correct is not true"
    if result.get("failed") != 0:
        return None, f"failed {result.get('failed')}"
    missing = [name for name in metrics if name not in result.get("metrics", {})]
    if missing:
        return None, f"no {', '.join(missing)}"
    return result, ""


def gate(base: Path, change: Path, benchmark: dict, runner: Runner,
         out: Callable[[str], None] = print) -> bool:
    """Run every pair and print the verdicts; True when the change passes."""
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    names = [metric["name"] for metric in metrics]
    values: Dict[Tuple[str, str, str], List[float]] = {}
    for pair in range(PAIRS):
        seed = pair + 1
        sides = [("base", base), ("change", change)]
        if pair % 2:
            sides.reverse()
        for workload in workloads:
            for side, root in sides:
                result, problem = run_problem(*runner(root, workload, seed), names)
                if problem and side == "base":
                    raise BaseRunError(
                        f"base {base}: {workload} run (seed {seed}): {problem}"
                    )
                if problem:
                    out(f"FAIL {workload}: change run (seed {seed}): {problem}")
                    return False
                row = []
                for name in names:
                    value = result["metrics"][name]["value"]
                    values.setdefault((side, workload, name), []).append(value)
                    row.append(f"{name} {value:.4g}")
                out(f"pair {pair + 1}/{PAIRS} seed {seed} {workload} {side}: "
                    + ", ".join(row))

    passed = True
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            base_median = statistics.median(values["base", workload, name])
            change_median = statistics.median(values["change", workload, name])
            ratio = change_median / base_median
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            verdict = "FAIL" if worse > bound else "ok"
            passed = passed and verdict == "ok"
            out(f"{verdict:4s} {workload} {name}: base {base_median:.4g} "
                f"change {change_median:.4g} {metric['unit']}, ratio "
                f"{ratio:.3f}, bound {bound:.0%}")
    return passed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the commit to compare with")
    base = parser.parse_args(argv).base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        parser.error(f"{base} has no perfbench/run.py")
    benchmark = json.loads((CHANGE_ROOT / "BENCHMARK.json").read_text())
    runner = perfbench_runner(benchmark["command"])
    try:
        passed = gate(base, CHANGE_ROOT, benchmark, runner)
    except BaseRunError as exc:
        print(f"perf_gate: {exc}", file=sys.stderr)
        return 2
    print("perf gate: " + ("pass" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
