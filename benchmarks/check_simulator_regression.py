"""Benchmark regression gate for the simulator throughput smoke.

Compares a freshly measured ``simulator_smoke`` summary against the
committed reference (``BENCH_simulator.json`` at the repository root) and
fails when throughput dropped by more than the allowed fraction — so an
accidental slow-down of the simulator cannot land silently::

    PYTHONPATH=src python benchmarks/simulator_smoke.py --output fresh.json
    PYTHONPATH=src python benchmarks/check_simulator_regression.py fresh.json

Both files hold a list of pinned **measurement blocks** (one per simulator
configuration — the flat single-wave path, the whole-GPU + hierarchy path
and the single-wave + hierarchy path over MSHR-bound cases, all on the
production ``vector`` core), and the gate is applied
*block for block*: every reference block must have a fresh twin that
measured the identical workload (same case list, simulation scope, memory
model, sample period **and** simulator backend label), and every twin must
hold its throughput.  A fresh run that silently skipped the expensive
configuration therefore fails the gate instead of passing vacuously.  The
reference itself must pin at least one vector block; a baseline without one
is rejected so the gate cannot be weakened by accident.  Older summaries
are still understood: blocks of the retired ``object`` core pair only with
``object`` blocks, and pre-suite single-block summaries (and ad-hoc
``--scope ...`` measurements) are treated as one-block lists measuring that
historical core.

The gate is one-sided: faster is always fine.  The committed reference is
refreshed by hand — rerun ``simulator_smoke.py --repeat 3 --output
BENCH_simulator.json`` and commit the result whenever the perf profile
changes intentionally (CI additionally uploads each fresh measurement as a
build artifact for trajectory tracking).  Measure fresh runs with
``--repeat`` too: the headline ``cycles_per_second`` of a repeated block
is the median pass, so the comparison is median-vs-median and absorbs
runner noise.  The default tolerance of 30% allows for runner-to-runner
hardware variance; genuine regressions (the PR 3 event-driven rewrite was
a 2.5x swing) blow well past it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple

DEFAULT_REFERENCE = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

#: The workload-identity fields two blocks must share to be comparable
#: (with the defaults pre-suite summaries implied).  Blocks recorded before
#: the vector core existed carry no ``simulator_backend`` key; they measured
#: the object core, so that is the implied default.
IDENTITY = (("cases", None), ("simulation_scope", "single_wave"),
            ("memory_model", "flat"), ("sample_period", 8),
            ("simulator_backend", "object"))


def blocks_of(summary: dict, origin: str) -> List[dict]:
    """The measurement blocks of a summary (legacy single-block included)."""
    if summary.get("benchmark") != "simulator_smoke":
        raise ValueError(f"{origin} summary is not a simulator_smoke result")
    if "measurements" in summary:
        blocks = summary["measurements"]
        if not isinstance(blocks, list) or not blocks:
            raise ValueError(f"{origin} summary has no measurement blocks")
        return blocks
    return [summary]  # pre-suite layout: the summary is the one block


def identity_of(block: dict) -> tuple:
    return tuple(
        json.dumps(block.get(key, default), sort_keys=True)
        for key, default in IDENTITY
    )


def describe(block: dict) -> str:
    return (
        f"{block.get('simulation_scope', 'single_wave')}"
        f"+{block.get('memory_model', 'flat')}"
        f" backend={block.get('simulator_backend', 'object')}"
        f" over {len(block.get('cases') or [])} cases"
    )


def check_block(fresh: dict, reference: dict, max_drop: float) -> str:
    """An error message if ``fresh`` regressed past ``max_drop``, else ''."""
    fresh_rate = fresh.get("cycles_per_second") or 0
    reference_rate = reference.get("cycles_per_second") or 0
    if reference_rate <= 0:
        return (
            f"reference throughput of {describe(reference)} is "
            f"{reference_rate}; regenerate the baseline"
        )
    floor = reference_rate * (1.0 - max_drop)
    if fresh_rate < floor:
        drop = 1.0 - fresh_rate / reference_rate
        return (
            f"simulator throughput of {describe(reference)} regressed "
            f"{drop:.1%}: {fresh_rate:,} cycles/s vs reference "
            f"{reference_rate:,} (allowed drop {max_drop:.0%}, "
            f"floor {floor:,.0f})"
        )
    return ""


def pair_blocks(fresh: dict, reference: dict) -> Tuple[str, List[Tuple[dict, dict]]]:
    """Match every reference block to its fresh twin by workload identity.

    Returns ``(error, pairs)``: a non-empty error (and no pairs) when either
    summary is malformed or a pinned reference configuration has no fresh
    measurement — the single source of pairing truth for both the gate and
    the ok-report.
    """
    try:
        fresh_blocks = blocks_of(fresh, "fresh")
        reference_blocks = blocks_of(reference, "reference")
    except ValueError as exc:
        return str(exc), []
    if not any(
        block.get("simulator_backend") == "vector" for block in reference_blocks
    ):
        return (
            "reference pins no vector-backend block; the default simulator "
            "core must stay under the gate — regenerate the baseline with "
            "simulator_smoke.py (the pinned suite measures both cores)"
        ), []
    fresh_by_identity = {identity_of(block): block for block in fresh_blocks}
    pairs = []
    for reference_block in reference_blocks:
        twin = fresh_by_identity.get(identity_of(reference_block))
        if twin is None:
            return (
                f"fresh run has no measurement of {describe(reference_block)} "
                f"(cases {reference_block.get('cases')!r}); the gate cannot "
                f"pass by skipping a pinned configuration"
            ), []
        pairs.append((reference_block, twin))
    return "", pairs


def check(fresh: dict, reference: dict, max_drop: float) -> str:
    """Gate every reference block against its fresh twin; '' when all hold."""
    error, pairs = pair_blocks(fresh, reference)
    if error:
        return error
    for reference_block, twin in pairs:
        error = check_block(twin, reference_block, max_drop)
        if error:
            return error
    return ""


def history_entry(fresh: dict, gate_error: str, recorded: str) -> dict:
    """One ``BENCH_history.jsonl`` line for this gated run.

    Every gated run is recorded — passes and failures alike — so the fleet
    dashboard's throughput trajectory shows the dip that tripped the gate,
    not just the runs that survived it.  Only the identity fields and the
    headline rate are kept; full summaries stay in the CI artifacts.
    """
    blocks = []
    for block in blocks_of(fresh, "fresh"):
        entry = {key: block.get(key, default) for key, default in IDENTITY}
        entry["cycles_per_second"] = block.get("cycles_per_second")
        blocks.append(entry)
    return {
        "benchmark": "simulator_smoke",
        "recorded": recorded,
        "gate": "fail" if gate_error else "ok",
        "blocks": blocks,
    }


def append_history(path: Path, entry: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly measured simulator_smoke JSON")
    parser.add_argument("--reference", default=str(DEFAULT_REFERENCE),
                        help="committed baseline JSON (default: repo root)")
    parser.add_argument("--max-drop", type=float, default=0.30, metavar="FRACTION",
                        help="maximum tolerated throughput drop (default 0.30)")
    parser.add_argument("--append-history", default=None, metavar="PATH",
                        help="append this run (pass or fail) as one line of "
                        "BENCH_history.jsonl for the fleet trend dashboard")
    args = parser.parse_args(argv)

    fresh = json.loads(Path(args.fresh).read_text())
    reference = json.loads(Path(args.reference).read_text())
    error = check(fresh, reference, args.max_drop)
    if args.append_history:
        from datetime import datetime, timezone

        recorded = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        try:
            append_history(
                Path(args.append_history),
                history_entry(fresh, error, recorded),
            )
        except ValueError as exc:
            # A malformed summary already fails the gate below; don't let
            # history bookkeeping mask that verdict with a traceback.
            print(f"history not recorded: {exc}", file=sys.stderr)
    if error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    _, pairs = pair_blocks(fresh, reference)
    for reference_block, twin in pairs:
        print(
            f"ok: {describe(reference_block)}: "
            f"{twin['cycles_per_second']:,} cycles/s vs reference "
            f"{reference_block['cycles_per_second']:,} "
            f"(within {args.max_drop:.0%})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
