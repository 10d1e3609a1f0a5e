"""``python -m repro.evaluation.fleet`` — the fleet-evaluation CLI.

Four subcommands, one per pipeline stage::

    plan    enumerate the case x configuration matrix into shards
    run     execute one shard, checkpointing after every unit (resumable)
    merge   fold shard checkpoints into the canonical sweep artifact
    report  render the static HTML trend dashboard

Exit codes follow :mod:`repro.evaluation.exitcodes`: 0 green, 1 for
infrastructure errors (retry the leg), 2 for bad usage, 3 when cases
failed evaluation (a red *result*), 4 when a run or merge stopped short of
full coverage (resume to finish).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import List, Optional, Sequence

from repro.evaluation.exitcodes import (
    EXIT_CASES_FAILED,
    EXIT_INCOMPLETE,
    EXIT_INFRA,
    EXIT_OK,
)
from repro.evaluation.fleet.merge import (
    artifact_json,
    collect_checkpoints,
    load_artifact,
    merge_checkpoints,
)
from repro.evaluation.fleet.plan import (
    EvaluationPlan,
    FleetError,
    SweepConfiguration,
    build_plan,
)
from repro.evaluation.fleet.report import load_bench_history, render_report
from repro.evaluation.fleet.runner import ShardRunner

PROG = "python -m repro.evaluation.fleet"


def _load_plan(path: str) -> EvaluationPlan:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FleetError(f"cannot read plan {path}: {exc}") from exc
    return EvaluationPlan.from_dict(payload)


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
def _cmd_plan(args: argparse.Namespace) -> int:
    configurations = [
        SweepConfiguration(
            simulation_scope=scope,
            memory_model=memory_model,
            arch_flag=args.arch_flag,
            sample_period=args.sample_period,
        )
        for scope in args.scopes
        for memory_model in args.memory_models
    ]
    plan = build_plan(
        case_ids=args.cases or None,
        configurations=configurations,
        num_shards=args.shards,
        limit=args.limit,
    )
    Path(args.out).write_text(plan.to_json(), encoding="utf-8")
    matrix = {"include": plan.matrix_include()}
    if args.matrix is not None:
        text = json.dumps(matrix, separators=(",", ":")) + "\n"
        if args.matrix == "-":
            sys.stdout.write(text)
        else:
            Path(args.matrix).write_text(text, encoding="utf-8")
    loaded = [leg["shard"] for leg in matrix["include"]]
    print(
        f"plan {plan.plan_id}: {len(plan.units())} units "
        f"({len(plan.case_ids)} cases x {len(plan.configurations)} configs) "
        f"across {len(loaded)} of {plan.num_shards} shards -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan)
    advisor = None
    if args.via_service:
        from repro.service import ServiceClient

        advisor = ServiceClient(
            args.via_service, timeout=args.service_timeout, token=args.token
        )

    def progress(event) -> None:
        if event.status == "start":
            return
        status = "ok" if event.status == "done" else "FAILED"
        print(
            f"  [{event.index + 1}/{event.total}] {event.step:60s} "
            f"{status} ({event.duration:.2f}s)",
            file=sys.stderr,
            flush=True,
        )

    runner = ShardRunner(
        plan,
        args.shard,
        args.checkpoint_dir,
        advisor=advisor,
        cache_dir=args.cache_dir,
        stop_after=args.stop_after,
        kill_after=args.kill_after,
        progress=progress,
    )
    try:
        summary = runner.run()
    finally:
        if advisor is not None:
            advisor.close()
    if summary.resume_note:
        print(summary.resume_note, file=sys.stderr)
    if summary.skipped:
        print(
            f"resuming: {summary.skipped} of {summary.total} unit(s) already "
            f"checkpointed",
            file=sys.stderr,
        )
    print(
        f"shard {args.shard}/{plan.num_shards}: {summary.total} unit(s), "
        f"skipped {summary.skipped}, executed {summary.executed}, "
        f"failed {len(summary.failed)}"
        + (" [interrupted]" if summary.interrupted else ""),
        file=sys.stderr,
    )
    if summary.interrupted:
        return EXIT_INCOMPLETE
    if summary.failed:
        print(
            f"{len(summary.failed)} case(s) failed: "
            + ", ".join(summary.failed),
            file=sys.stderr,
        )
        return EXIT_CASES_FAILED
    return EXIT_OK


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _cmd_merge(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan)
    checkpoints, notes = collect_checkpoints(args.checkpoint_dir, plan)
    outcome = merge_checkpoints(plan, checkpoints, notes=notes)
    for note in outcome.notes:
        print(note, file=sys.stderr)
    if not outcome.complete and not args.allow_incomplete:
        print(
            f"merge incomplete: {len(outcome.missing)} of "
            f"{len(plan.units())} unit(s) have no checkpoint entry "
            f"(first missing: {outcome.missing[0]}); resume the shards or "
            f"pass --allow-incomplete",
            file=sys.stderr,
        )
        return EXIT_INCOMPLETE
    Path(args.out).write_text(artifact_json(outcome.artifact), encoding="utf-8")
    for config in outcome.artifact["configurations"]:
        print(
            f"  {config['key']:40s} ok={config['cases_ok']:3d} "
            f"failed={config['cases_failed']:2d} "
            f"geomean_error={config['geomean_error'] * 100:6.1f}%",
            file=sys.stderr,
        )
    print(
        f"merged {len(plan.units()) - len(outcome.missing)} of "
        f"{len(plan.units())} unit(s) -> {args.out}",
        file=sys.stderr,
    )
    if outcome.failures:
        print(f"{outcome.failures} case(s) failed", file=sys.stderr)
        return EXIT_CASES_FAILED
    if not outcome.complete:
        return EXIT_INCOMPLETE
    return EXIT_OK


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _cmd_report(args: argparse.Namespace) -> int:
    paths: List[Path] = [Path(path) for path in args.artifacts]
    if args.sweep_dir:
        paths.extend(sorted(Path(args.sweep_dir).glob("*.json")))
    sweeps = []
    for path in paths:
        try:
            artifact = load_artifact(path)
        except FleetError as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        sweeps.append((path.stem, artifact))

    history = load_bench_history(args.bench_history) if args.bench_history else []
    page = render_report(sweeps, history, generated=args.generated)
    Path(args.out).write_text(page, encoding="utf-8")
    print(
        f"dashboard: {len(sweeps)} sweep(s), {len(history)} benchmark "
        f"point(s) -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro.arch.machine import architecture_flags
    from repro.sampling.memory import MEMORY_MODELS
    from repro.sampling.profiler import SIMULATION_SCOPES

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Sharded, resumable fleet evaluation of the benchmark registry.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser(
        "plan", help="enumerate the case x configuration matrix into shards"
    )
    plan.add_argument("--shards", type=int, default=1, metavar="N",
                      help="number of shards to partition into (default 1)")
    plan.add_argument("--case", dest="cases", action="append", default=[],
                      metavar="CASE", help="registry case id (repeatable; "
                      "default: the whole registry)")
    plan.add_argument("--limit", type=int, default=None, metavar="N",
                      help="only plan the first N cases")
    plan.add_argument("--scope", dest="scopes", action="append",
                      choices=SIMULATION_SCOPES, default=None, metavar="SCOPE",
                      help="simulation scope axis (repeatable; default single_wave)")
    plan.add_argument("--memory-model", dest="memory_models", action="append",
                      choices=MEMORY_MODELS, default=None, metavar="MODEL",
                      help="memory model axis (repeatable; default flat)")
    plan.add_argument("--arch", dest="arch_flag", default="sm_70",
                      choices=architecture_flags(),
                      help="architecture model (default sm_70)")
    plan.add_argument("--sample-period", type=int, default=8)
    plan.add_argument("--out", default="fleet-plan.json", metavar="PATH",
                      help="where to write the plan (default fleet-plan.json)")
    plan.add_argument("--matrix", default=None, metavar="PATH",
                      help="also emit the GitHub Actions matrix include-list "
                      "('-' = stdout)")
    plan.set_defaults(func=_cmd_plan)

    run = commands.add_parser(
        "run", help="execute one shard, checkpointing after every unit"
    )
    run.add_argument("--plan", required=True, metavar="PATH")
    run.add_argument("--shard", type=int, required=True, metavar="N")
    run.add_argument("--checkpoint-dir", required=True, metavar="DIR")
    run.add_argument("--cache-dir", default=None, metavar="PATH",
                     help="profile cache for the inline session")
    run.add_argument("--via-service", default=None, metavar="URL",
                     help="run through an advising daemon instead of inline")
    run.add_argument("--token", default=None, metavar="TOKEN",
                     help="bearer token for --via-service")
    run.add_argument("--service-timeout", type=float, default=600.0,
                     metavar="SECONDS")
    run.add_argument("--stop-after", type=int, default=None, metavar="N",
                     help="stop (exit 4) after N newly executed units")
    run.add_argument("--kill-after", type=int, default=None, metavar="N",
                     help="fault injection: SIGKILL this process after N "
                     "newly executed units (tests the resume contract)")
    run.set_defaults(func=_cmd_run)

    merge = commands.add_parser(
        "merge", help="fold shard checkpoints into the canonical sweep artifact"
    )
    merge.add_argument("--plan", required=True, metavar="PATH")
    merge.add_argument("--checkpoint-dir", required=True, metavar="DIR")
    merge.add_argument("--out", default="fleet-sweep.json", metavar="PATH")
    merge.add_argument("--allow-incomplete", action="store_true",
                       help="fold whatever coverage exists instead of "
                       "requiring every unit (artifact records the gaps)")
    merge.set_defaults(func=_cmd_merge)

    report = commands.add_parser(
        "report", help="render the static HTML trend dashboard"
    )
    report.add_argument("--artifact", dest="artifacts", action="append",
                        default=[], metavar="PATH",
                        help="sweep artifact (repeatable, oldest first)")
    report.add_argument("--sweep-dir", default=None, metavar="DIR",
                        help="directory of sweep artifacts, read in name order")
    report.add_argument("--bench-history", default=None, metavar="PATH",
                        help="perfbench history: one JSON line per nightly run")
    report.add_argument("--generated", default="", metavar="STAMP",
                        help="free-form timestamp shown in the page header")
    report.add_argument("--out", default="fleet-report.html", metavar="PATH")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plan":
        if args.shards < 1:
            parser.error("--shards must be at least 1")
        if args.sample_period <= 0:
            parser.error("--sample-period must be positive")
        if args.limit is not None and args.limit < 1:
            parser.error("--limit must be at least 1")
        args.scopes = args.scopes or ["single_wave"]
        args.memory_models = args.memory_models or ["flat"]
    if args.command == "run":
        if args.stop_after is not None and args.stop_after < 1:
            parser.error("--stop-after must be at least 1")
        if args.kill_after is not None and args.kill_after < 1:
            parser.error("--kill-after must be at least 1")
        if args.token is not None and not args.via_service:
            parser.error("--token requires --via-service")
    if args.command == "report" and not args.artifacts and not args.sweep_dir:
        parser.error("report needs --artifact and/or --sweep-dir")
    try:
        return args.func(args)
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except Exception:
        traceback.print_exc()
        return EXIT_INFRA


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
