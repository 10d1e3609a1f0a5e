"""The ``gpa-advise`` command line tool.

The paper's GPA is a command-line tool that automates the profiling and
analysis stages for a CUDA application.  Without a GPU, the CLI operates on
the built-in synthetic workloads (or on a previously dumped profile + binary
pair).  It is a thin adapter over the service-layer API: every invocation
builds an :class:`~repro.api.session.AdvisingSession`, describes the work as
:class:`~repro.api.request.AdvisingRequest` objects and renders the typed
:class:`~repro.api.result.AdvisingResult` objects that come back:

.. code-block:: console

   # List the available benchmark cases (Table 3 rows).
   gpa-advise --list

   # Profile a benchmark's baseline kernel and print its advice report.
   gpa-advise --case rodinia/hotspot:strength_reduction

   # Same, as JSON (for GUI or service ingestion).
   gpa-advise --case ExaTENSOR:strength_reduction --output json

   # Sweep the full case registry across 4 worker processes with an
   # on-disk profile cache, streaming one JSON line per finished case.
   gpa-advise --all --jobs 4 --cache-dir .gpa-cache --output jsonl

   # Analyze an offline profile dumped by the profiler.
   gpa-advise --profile profile.json --cubin module.json

   # Run the persistent advising daemon, then submit jobs to it.  Reports
   # coming back from the daemon are bit-identical to inline runs.
   gpa-advise serve --port 8765 --workers 4 --cache-dir .gpa-cache
   gpa-advise submit --url http://127.0.0.1:8765 --case rodinia/hotspot:strength_reduction
   gpa-advise submit --url http://127.0.0.1:8765 --all --limit 3 --output json

   # Static lint (dataflow over the CFG, no simulation): one case as text,
   # or the full registry as the golden-report JSON layout.
   gpa-advise lint --case rodinia/nw:warp_balance
   gpa-advise lint --all --output json --output-dir lint-reports

   # Lint real disassembly: one nvdisasm/cuobjdump listing, or the committed
   # SASS corpus in the golden-report layout CI byte-diffs.
   gpa-advise lint --sass kernel.sass
   gpa-advise lint --sass-corpus --output json --output-dir sass-lint-reports
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.advisor.report import render_report
from repro.api.request import AdvisingRequest, request_for_case
from repro.api.result import AdvisingResult, dump_jsonl, error_summary
from repro.api.session import AdvisingSession
from repro.arch.machine import ArchitectureError, architecture_flags
from repro.cubin.binary import Cubin
from repro.pipeline.runner import ProgressEvent
from repro.sampling.memory import MEMORY_MODELS
from repro.sampling.profiler import SIMULATION_SCOPES
from repro.sampling.sample import KernelProfile
from repro.workloads.registry import case_by_name, case_names

OUTPUT_FORMATS = ("text", "json", "jsonl")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpa-advise",
        description="GPU Performance Advisor (simulator-backed reproduction)",
        epilog="Subcommands: 'gpa-advise serve' runs the persistent advising "
               "daemon; 'gpa-advise submit' sends jobs to it (see "
               "'gpa-advise serve --help' / 'gpa-advise submit --help' and "
               "docs/SERVICE.md); 'gpa-advise lint' runs the static checker "
               "without simulating (see docs/STATIC_ANALYSIS.md).",
    )
    parser.add_argument("--list", action="store_true", help="list the built-in benchmark cases")
    parser.add_argument("--case", help="benchmark case to profile and analyze (see --list)")
    parser.add_argument("--all", action="store_true",
                        help="sweep every benchmark case in the registry")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="with --all: only sweep the first N cases")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for --all sweeps (default 1)")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="directory of the on-disk profile cache; repeated "
                             "runs replay profiles instead of re-simulating")
    parser.add_argument("--arch", default="sm_70", choices=architecture_flags(),
                        help="architecture model to profile on (default sm_70)")
    parser.add_argument("--scope", default="single_wave", choices=SIMULATION_SCOPES,
                        dest="simulation_scope", metavar="SCOPE",
                        help="simulation scope: 'single_wave' extrapolates one "
                             "simulated wave (default), 'whole_gpu' measures the "
                             "full grid across every SM (slower, sees tail waves "
                             "and cross-SM imbalance)")
    parser.add_argument("--memory-model", default="flat", choices=MEMORY_MODELS,
                        dest="memory_model", metavar="MODEL",
                        help="memory model: 'flat' services every access at its "
                             "opcode latency (default), 'hierarchy' coalesces "
                             "warp accesses into 32-byte sectors and runs them "
                             "through L1/L2/DRAM with MSHR and bandwidth "
                             "backpressure (reports hit-rate statistics)")
    parser.add_argument("--optimized", action="store_true",
                        help="analyze the hand-optimized variant instead of the baseline")
    parser.add_argument("--profile", help="path to a dumped kernel profile (JSON)")
    parser.add_argument("--cubin", help="path to a dumped binary (JSON), required with --profile")
    parser.add_argument("--top", type=int, default=5, help="number of optimizers to show")
    parser.add_argument("--sample-period", type=int, default=8,
                        help="PC sampling period in cycles")
    parser.add_argument("--output", choices=OUTPUT_FORMATS, default="text",
                        help="output format: the ASCII Figure 8 report (text, "
                             "default), one JSON document (json), or one JSON "
                             "line per result as it completes (jsonl)")
    return parser


def _session(args: argparse.Namespace) -> AdvisingSession:
    """The one advising session every CLI scope runs on."""
    return AdvisingSession(
        architecture=args.arch,
        sample_period=args.sample_period,
        cache=args.cache_dir,
        jobs=args.jobs,
        simulation_scope=args.simulation_scope,
        memory_model=args.memory_model,
    )


def _request_for_args(args: argparse.Namespace) -> AdvisingRequest:
    """The request described by --case or --profile/--cubin."""
    if args.case:
        return request_for_case(
            args.case,
            "optimized" if args.optimized else "baseline",
            arch_flag=args.arch,
        )
    profile = KernelProfile.from_json(Path(args.profile).read_text())
    cubin = Cubin.from_json(Path(args.cubin).read_text())
    return AdvisingRequest(
        source="profile", profile=profile, cubin=cubin,
        label=str(args.profile),
    )


def _emit_single(result: AdvisingResult, args: argparse.Namespace) -> int:
    """Render one result in the chosen output format."""
    if args.output == "jsonl":
        for line in dump_jsonl([result]):
            print(line)
        return 0 if result.ok else 1
    report = result.require_report()
    if args.output == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_report(report, top=args.top))
    return 0


def _progress_printer(stream):
    """A progress callback that logs one line per finished case.

    The counter tracks *completions*, not submission indices: pool workers
    finish out of order, and a counter that jumps around reads as lost cases.
    """
    finished = 0

    def on_event(event: ProgressEvent) -> None:
        nonlocal finished
        if event.status == "start":
            return
        finished += 1
        status = "ok" if event.status == "done" else "FAILED"
        print(
            f"[{finished:3d}/{event.total}] {event.step:55s} "
            f"{status} ({event.duration:.2f}s)",
            file=stream,
        )

    return on_event


def _emit_jsonl(results) -> int:
    """Stream one compact JSON line per result as it becomes available —
    shared by the inline ``--all`` sweep (completion order) and
    ``submit --all`` (submission order)."""
    failures = 0
    for result in results:
        (line,) = dump_jsonl([result])
        print(line, flush=True)
        failures += 0 if result.ok else 1
    return 1 if failures else 0


def _emit_batch_results(
    results: List[AdvisingResult],
    variant: str,
    arch: str,
    output: str,
    engine_note: str,
) -> int:
    """Render a finished batch (``json`` or ``text``) — shared between the
    inline ``--all`` sweep and ``submit --all``, so the two produce the same
    shapes and the CI smoke can diff them field for field."""
    failures = [result for result in results if not result.ok]
    if output == "json":
        payload = []
        for result in results:
            entry = {
                "case": result.label,
                "ok": result.ok,
                "duration": result.duration,
                "error": result.error,
            }
            if result.ok:
                entry.update(
                    kernel=result.report.kernel,
                    variant=variant,
                    arch=arch,
                    report=result.report.to_dict(),
                )
            payload.append(entry)
        print(json.dumps(payload, indent=2))
    else:
        header = (
            f"{'Case':55s} {'Kernel':28s} {'Top advice':35s} "
            f"{'Speedup':>8s} {'Time':>7s}"
        )
        print(header)
        print("-" * len(header))
        for result in results:
            if not result.ok:
                print(f"{result.label:55s} FAILED: {error_summary(result.error)}")
                continue
            applicable = [item for item in result.report.advice if item.applicable]
            top_name = applicable[0].optimizer if applicable else "-"
            top_speedup = applicable[0].estimated_speedup if applicable else 1.0
            print(
                f"{result.label:55s} {result.report.kernel:28s} {top_name:35s} "
                f"{top_speedup:7.2f}x {result.duration:6.2f}s"
            )
        print(
            f"\n{len(results) - len(failures)}/{len(results)} cases ok "
            f"on {arch} ({engine_note})"
        )
        for result in failures:
            print(f"\n{result.label} failed:\n{result.error}", file=sys.stderr)
    return 1 if failures else 0


def _sweep_all(args: argparse.Namespace) -> int:
    """Run the full-registry sweep through one session."""
    ids = case_names()
    if args.limit is not None:
        ids = ids[: args.limit]
    variant = "optimized" if args.optimized else "baseline"
    session = _session(args)
    requests = [request_for_case(case_id, variant, arch_flag=args.arch) for case_id in ids]

    if args.output == "jsonl":
        return _emit_jsonl(session.stream(requests))

    results = session.advise_many(requests, progress=_progress_printer(sys.stderr))
    return _emit_batch_results(
        results, variant, args.arch, args.output,
        f"{args.jobs} job{'s' if args.jobs != 1 else ''}",
    )


# ----------------------------------------------------------------------
# The service subcommands: `gpa-advise serve` / `gpa-advise submit`
# ----------------------------------------------------------------------
def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpa-advise serve",
        description="Run the persistent advising daemon (see docs/SERVICE.md). "
                    "SIGTERM/SIGINT drain every admitted job, persist the "
                    "profile cache and exit 0.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="TCP port (default 8765; 0 picks a free port)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes/threads executing jobs (default 2)")
    parser.add_argument("--queue-size", type=int, default=64, metavar="N",
                        help="bounded job-queue capacity; submissions beyond it "
                             "are rejected with HTTP 429 (default 64)")
    parser.add_argument("--job-ttl", type=float, default=900.0, metavar="SECONDS",
                        help="how long finished job results stay queryable "
                             "(default 900)")
    parser.add_argument("--inline", action="store_true",
                        help="execute jobs in worker threads instead of a "
                             "process pool (serialized; for debugging/tests)")
    parser.add_argument("--ready-file", metavar="PATH",
                        help="write 'host port pid' to PATH once the socket is "
                             "bound (for scripts that must wait for readiness)")
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per HTTP request to stderr")
    parser.add_argument("--arch", default="sm_70", choices=architecture_flags(),
                        help="architecture model jobs run on by default")
    parser.add_argument("--sample-period", type=int, default=8)
    parser.add_argument("--scope", default="single_wave", choices=SIMULATION_SCOPES,
                        dest="simulation_scope", metavar="SCOPE")
    parser.add_argument("--memory-model", default="flat", choices=MEMORY_MODELS,
                        dest="memory_model", metavar="MODEL")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="on-disk profile cache shared by every worker "
                             "(flock-guarded: safe to share between daemons)")
    parser.add_argument("--store", metavar="PATH", dest="store",
                        help="SQLite job store: jobs and results survive "
                             "daemon restarts and are replayed byte-identically "
                             "(default: in-memory, lost on exit)")
    parser.add_argument("--auth-token", action="append", default=[],
                        metavar="CLIENT=TOKEN", dest="auth_tokens",
                        help="require bearer-token auth; repeatable, one "
                             "client name + token per flag (anonymous mode "
                             "when absent)")
    parser.add_argument("--rate-limit", type=float, default=None, metavar="N",
                        help="per-client submission rate limit in requests/s "
                             "(token bucket; default: unlimited)")
    parser.add_argument("--rate-burst", type=int, default=None, metavar="N",
                        help="token-bucket burst depth (default: max(1, "
                             "int(--rate-limit)))")
    return parser


def _serve_main(argv: List[str], stop: Optional[threading.Event] = None) -> int:
    """``gpa-advise serve``: run the daemon until SIGTERM/SIGINT (or ``stop``)."""
    from repro.service import AdvisingDaemon, ServiceConfig, ServiceHTTPServer
    from repro.service.errors import ServiceError

    parser = _build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.queue_size < 1:
        parser.error("--queue-size must be at least 1")
    if args.job_ttl <= 0:
        parser.error("--job-ttl must be positive")
    if args.sample_period <= 0:
        parser.error("--sample-period must be positive")
    if args.rate_limit is not None and args.rate_limit <= 0:
        parser.error("--rate-limit must be positive")
    if args.rate_burst is not None and args.rate_burst < 1:
        parser.error("--rate-burst must be at least 1")
    if args.rate_burst is not None and args.rate_limit is None:
        parser.error("--rate-burst requires --rate-limit")
    tokens = {}
    for spec in args.auth_tokens:
        client_name, sep, token = spec.partition("=")
        if not sep or not client_name or not token:
            parser.error(
                f"--auth-token expects CLIENT=TOKEN, got {spec!r}"
            )
        if token in tokens:
            parser.error(f"--auth-token: token for {tokens[token]!r} reused")
        tokens[token] = client_name

    from repro.service.auth import AuthPolicy

    auth = AuthPolicy(
        tokens=tokens or None,
        rate=args.rate_limit,
        burst=args.rate_burst,
    )

    try:
        config = ServiceConfig(
            arch_flag=args.arch,
            sample_period=args.sample_period,
            simulation_scope=args.simulation_scope,
            memory_model=args.memory_model,
            cache_dir=args.cache_dir,
        )
        daemon = AdvisingDaemon(
            config,
            workers=args.workers,
            queue_capacity=args.queue_size,
            job_ttl=args.job_ttl,
            use_pool=not args.inline,
            store_path=args.store,
        )
        # Bind the socket *before* forking the worker pool: a taken port
        # fails with a one-line message and nothing to tear down.
        server = ServiceHTTPServer(
            (args.host, args.port), daemon, quiet=not args.verbose,
            auth=auth,
        )
    except ServiceError as exc:
        print(f"gpa-advise serve: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"gpa-advise serve: cannot listen on "
            f"{args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    try:
        daemon.start()
    except Exception as exc:
        server.server_close()
        print(f"gpa-advise serve: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    print(
        f"gpa-advise service listening on http://{host}:{port} "
        f"(workers={args.workers}, queue={args.queue_size}, arch={args.arch}, "
        f"scope={args.simulation_scope}, memory_model={args.memory_model}, "
        f"cache={args.cache_dir or 'off'}, store={args.store or 'memory'}, "
        f"auth={'on' if not auth.anonymous else 'anonymous'})",
        file=sys.stderr, flush=True,
    )
    if args.ready_file:
        import os

        Path(args.ready_file).write_text(f"{host} {port} {os.getpid()}\n")

    if stop is None:
        stop = threading.Event()
    # SIGTERM and SIGINT both trigger the graceful drain.  Handlers can only
    # be installed from the main thread; embedded callers (tests) pass their
    # own `stop` event instead.
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    except ValueError:
        pass

    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    try:
        # Event.wait() would not return when a signal handler merely sets the
        # flag, so poll in short slices.
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        print("gpa-advise service draining...", file=sys.stderr, flush=True)
        server.shutdown()
        server.server_close()
        summary = daemon.shutdown(drain=True)
        print(
            f"gpa-advise service stopped: {summary['jobs_served']} jobs served "
            f"({summary['jobs_failed']} failed, {summary['jobs_aborted']} aborted)",
            file=sys.stderr, flush=True,
        )
        # Closing the last connection checkpoints a --store file's WAL.
        daemon.store.close()
    return 0


def _build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpa-advise submit",
        description="Submit advising jobs to a running gpa-advise daemon and "
                    "wait for the results (bit-identical to inline runs).",
    )
    parser.add_argument("--url", default="http://127.0.0.1:8765",
                        help="base URL of the daemon (default http://127.0.0.1:8765)")
    parser.add_argument("--token", default=None,
                        help="bearer token for daemons started with "
                             "--auth-token (default: anonymous)")
    parser.add_argument("--healthz", action="store_true",
                        help="print the daemon's health document and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print the daemon's stats document and exit")
    parser.add_argument("--case", help="benchmark case to submit (see --list)")
    parser.add_argument("--optimized", action="store_true",
                        help="submit the hand-optimized variant instead of the baseline")
    parser.add_argument("--all", action="store_true",
                        help="submit every registry case as one atomic batch")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="with --all: only submit the first N cases")
    parser.add_argument("--arch", default="sm_70", choices=architecture_flags(),
                        help="architecture model to pin on each request (default sm_70)")
    parser.add_argument("--sample-period", type=int, default=None,
                        help="pin a PC sampling period per request "
                             "(default: the daemon's configured period)")
    parser.add_argument("--scope", default=None, choices=SIMULATION_SCOPES,
                        dest="simulation_scope", metavar="SCOPE",
                        help="pin a simulation scope per request "
                             "(default: the daemon's configured scope)")
    parser.add_argument("--memory-model", default=None, choices=MEMORY_MODELS,
                        dest="memory_model", metavar="MODEL",
                        help="pin a memory model per request "
                             "(default: the daemon's configured model)")
    parser.add_argument("--top", type=int, default=5, help="number of optimizers to show")
    parser.add_argument("--output", choices=OUTPUT_FORMATS, default="text",
                        help="output format, mirroring the inline CLI")
    parser.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                        help="how long to wait for completion (default 600)")
    return parser


def _submit_main(argv: List[str]) -> int:
    """``gpa-advise submit``: drive one daemon round-trip from the shell."""
    from repro.service import ServiceClient
    from repro.service.errors import ServiceError

    parser = _build_submit_parser()
    args = parser.parse_args(argv)
    actions = sum(bool(flag) for flag in (args.healthz, args.stats, args.case, args.all))
    if actions == 0:
        parser.error("nothing to do: pass --case, --all, --healthz or --stats")
    if actions > 1:
        parser.error("--case, --all, --healthz and --stats are mutually exclusive")
    if args.limit is not None and not args.all:
        parser.error("--limit only applies to --all batches")
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be non-negative")
    if args.top <= 0:
        parser.error("--top must be positive")
    if args.sample_period is not None and args.sample_period <= 0:
        parser.error("--sample-period must be positive")
    if args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.case:
        try:
            case_by_name(args.case)
        except KeyError:
            parser.error(
                f"unknown benchmark case {args.case!r}; run gpa-advise --list "
                "to see the available cases"
            )

    client = ServiceClient(args.url, token=args.token)
    variant = "optimized" if args.optimized else "baseline"

    def build_request(case_id: str) -> AdvisingRequest:
        return request_for_case(
            case_id, variant,
            arch_flag=args.arch,
            sample_period=args.sample_period,
            simulation_scope=args.simulation_scope,
            memory_model=args.memory_model,
        )

    try:
        if args.healthz:
            print(json.dumps(client.healthz(), indent=2))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.case:
            result = client.advise(build_request(args.case), timeout=args.timeout)
            if not result.ok and args.output != "jsonl":
                print(result.error, file=sys.stderr)
                return 1
            return _emit_single(result, args)
        # --all: one atomic batch, results in submission order.  An empty
        # selection (--limit 0) renders an empty sweep like the inline CLI
        # does: the client answers an empty batch without a round trip.
        ids = case_names()
        if args.limit is not None:
            ids = ids[: args.limit]
        results = client.advise_many(
            [build_request(case_id) for case_id in ids], timeout=args.timeout,
        )
        if args.output == "jsonl":
            return _emit_jsonl(results)
        return _emit_batch_results(results, variant, args.arch, args.output, "service")
    except ServiceError as exc:
        print(f"gpa-advise submit: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpa-advise lint",
        description="Static lint over kernel CFGs — dataflow analyses and "
                    "typed diagnostics, no simulation (see docs/STATIC_ANALYSIS.md)",
    )
    parser.add_argument("--list", action="store_true",
                        help="list the built-in benchmark cases")
    parser.add_argument("--case", help="benchmark case to lint (see --list)")
    parser.add_argument("--all", action="store_true",
                        help="lint every benchmark case in the registry")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="with --all: only lint the first N cases")
    parser.add_argument("--optimized", action="store_true",
                        help="lint the case's optimized variant instead of the baseline")
    parser.add_argument("--sass", metavar="FILE",
                        help="lint a real nvdisasm/cuobjdump disassembly "
                             "listing instead of a registry case (ingested "
                             "through repro.sass; unknown opcodes degrade to "
                             "conservative diagnostics, never a crash)")
    parser.add_argument("--sass-corpus", metavar="DIR", nargs="?", const="",
                        default=None,
                        help="lint every listing in the committed SASS corpus "
                             "manifest (repro.sass.corpus); DIR overrides the "
                             "default tests/sass/corpus directory")
    parser.add_argument("--arch", choices=architecture_flags(), default=None,
                        help="retarget the binary to another architecture "
                             "(with --sass: the fallback when the listing "
                             "does not declare one)")
    parser.add_argument("--strict-arch", action="store_true",
                        help="fail instead of falling back when the binary's "
                             "architecture flag is unknown")
    parser.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--output-dir", metavar="DIR", default=None,
                        help="with --all or --sass-corpus and --output json: "
                             "write one <case>.json per case into DIR (the "
                             "layout CI's lint-smoke job diffs against the "
                             "golden reports)")
    parser.add_argument("--crosscheck", action="store_true",
                        help="with --case --output text: also run the dynamic "
                             "advisor and print the static cross-check "
                             "annotations")
    return parser


def _lint_slug(case_id: str) -> str:
    """Filesystem-safe golden-report name of one case id."""
    return case_id.replace("/", "__").replace(":", "__")


def _lint_sass_main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``--sass`` / ``--sass-corpus`` scopes of ``gpa-advise lint``.

    Real disassembly never goes through the registry: ``--sass FILE`` ingests
    one listing, ``--sass-corpus`` sweeps the committed corpus manifest and —
    with ``--output json --output-dir`` — reproduces the golden-report layout
    CI byte-diffs against.
    """
    from repro.sass.corpus import SASS_CORPUS, lint_corpus_case
    from repro.sass.lint import lint_file
    from repro.staticcheck.report import render_static_report

    if args.sass:
        try:
            report = lint_file(
                args.sass,
                default_arch=args.arch or "sm_70",
                strict_architecture=args.strict_arch,
            )
        except OSError as exc:
            print(f"gpa-advise lint: cannot read {args.sass}: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"gpa-advise lint: {args.sass}: {exc}", file=sys.stderr)
            return 1
        if args.output == "json":
            sys.stdout.write(report.to_json())
        else:
            print(render_static_report(report))
            if report.ingest:
                print(
                    f"Ingest: {report.ingest['decoded']}/{report.ingest['total']} "
                    f"instructions decoded (coverage "
                    f"{report.ingest['coverage']:.2%}, "
                    f"dialect {report.ingest['dialect']})"
                )
        return 0

    directory = args.sass_corpus or None
    try:
        reports = [
            (case, lint_corpus_case(case, directory, strict_architecture=args.strict_arch))
            for case in SASS_CORPUS
        ]
    except (OSError, ValueError) as exc:
        print(f"gpa-advise lint: {exc}", file=sys.stderr)
        return 1
    if args.output_dir is not None:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for case, report in reports:
            (out_dir / f"{case.golden_name}.json").write_text(report.to_json())
        print(f"wrote {len(reports)} SASS lint reports to {out_dir}", file=sys.stderr)
    elif args.output == "json":
        document = {case.case_id: report.to_dict() for case, report in reports}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for _case, report in reports:
            print(render_static_report(report))
        totals = {"info": 0, "warning": 0, "error": 0}
        for _case, report in reports:
            for severity, count in report.counts_by_severity().items():
                totals[severity] += count
        coverage = min(report.ingest["coverage"] for _case, report in reports)
        print(
            f"Linted {len(reports)} SASS listings "
            f"(worst decode coverage {coverage:.2%}): "
            + ", ".join(f"{count} {severity}" for severity, count in totals.items())
        )
    return 0


def _lint_main(argv: List[str]) -> int:
    """``gpa-advise lint``: run the static checker from the shell."""
    from repro.staticcheck.crosscheck import cross_check
    from repro.staticcheck.report import render_static_report

    parser = _build_lint_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in case_names():
            print(name)
        return 0
    scopes = sum(
        bool(flag)
        for flag in (args.case, args.all, args.sass, args.sass_corpus is not None)
    )
    if scopes > 1:
        parser.error(
            "--case, --all, --sass and --sass-corpus are mutually exclusive "
            "(pick one scope)"
        )
    if scopes == 0:
        parser.error("nothing to do: pass --case, --all, --sass, --sass-corpus or --list")
    if args.limit is not None and not args.all:
        parser.error("--limit only applies to --all sweeps")
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be non-negative")
    if args.output_dir is not None and not (
        (args.all or args.sass_corpus is not None) and args.output == "json"
    ):
        parser.error("--output-dir requires --all or --sass-corpus with --output json")
    if args.crosscheck and (not args.case or args.output != "text"):
        parser.error("--crosscheck requires --case --output text")
    if args.optimized and (args.sass or args.sass_corpus is not None):
        parser.error("--optimized only applies to registry cases")
    if args.case:
        try:
            case_by_name(args.case)
        except KeyError:
            parser.error(
                f"unknown benchmark case {args.case!r}; run gpa-advise lint "
                "--list to see the available cases"
            )

    session = AdvisingSession()
    variant = "optimized" if args.optimized else "baseline"

    def lint_one(case_id: str):
        request = request_for_case(case_id, variant, arch_flag=args.arch)
        return session.lint(request, strict_architecture=args.strict_arch)

    try:
        if args.sass or args.sass_corpus is not None:
            return _lint_sass_main(args, parser)
        if args.case:
            report = lint_one(args.case)
            if args.output == "json":
                sys.stdout.write(report.to_json())
            else:
                print(render_static_report(report))
                if args.crosscheck:
                    result = session.advise(
                        request_for_case(args.case, variant, arch_flag=args.arch)
                    )
                    if not result.ok:
                        print(result.error, file=sys.stderr)
                        return 1
                    print("Cross-check against the dynamic advisor:")
                    notes = cross_check(result.report, report)
                    for note in notes or ["(no overlapping findings)"]:
                        print(f"  {note}")
            return 0

        ids = case_names()
        if args.limit is not None:
            ids = ids[: args.limit]
        reports = [(case_id, lint_one(case_id)) for case_id in ids]
        if args.output_dir is not None:
            out_dir = Path(args.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            for case_id, report in reports:
                (out_dir / f"{_lint_slug(case_id)}.json").write_text(report.to_json())
            print(f"wrote {len(reports)} lint reports to {out_dir}", file=sys.stderr)
        elif args.output == "json":
            document = {case_id: report.to_dict() for case_id, report in reports}
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            for _case_id, report in reports:
                print(render_static_report(report))
            totals = {"info": 0, "warning": 0, "error": 0}
            for _case_id, report in reports:
                for severity, count in report.counts_by_severity().items():
                    totals[severity] += count
            print(
                f"Linted {len(reports)} cases: "
                + ", ".join(f"{count} {severity}" for severity, count in totals.items())
            )
        return 0
    except ArchitectureError as exc:
        # A KeyError, whose str() would quote the message.
        print(f"gpa-advise lint: {exc.args[0]}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``gpa-advise``."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(list(argv[1:]))
    if argv and argv[0] == "submit":
        return _submit_main(list(argv[1:]))
    if argv and argv[0] == "lint":
        return _lint_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.all and args.case:
        parser.error("--case cannot be combined with --all (pick one scope)")
    if args.all and (args.profile or args.cubin):
        parser.error("--profile/--cubin cannot be combined with --all")
    if args.case and (args.profile or args.cubin):
        parser.error("--case cannot be combined with --profile/--cubin (pick one scope)")
    if args.profile and not args.cubin:
        parser.error("--profile requires --cubin")
    if args.limit is not None and not args.all:
        parser.error("--limit only applies to --all sweeps")
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be non-negative")
    if args.top <= 0:
        parser.error("--top must be positive")
    if args.sample_period <= 0:
        parser.error("--sample-period must be positive")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    if args.case:
        # Fail with a clean usage error, not a captured traceback, when the
        # case label does not resolve.
        try:
            case_by_name(args.case)
        except KeyError:
            parser.error(
                f"unknown benchmark case {args.case!r}; run --list to see "
                "the available cases"
            )

    if args.list:
        for name in case_names():
            case = case_by_name(name)
            print(f"{name:55s} kernel={case.kernel:30s} optimizer={case.optimizer_name}")
        return 0

    if args.all:
        return _sweep_all(args)

    if not args.case and not args.profile:
        parser.print_help()
        return 2

    session = _session(args)
    result = session.advise(_request_for_args(args))
    if not result.ok and args.output != "jsonl":
        # Fail loudly with the captured traceback, like the pre-API CLI did.
        print(result.error, file=sys.stderr)
        return 1
    return _emit_single(result, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
