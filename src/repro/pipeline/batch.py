"""Process-parallel batch sweeps over benchmark cases.

The paper's evaluation runs 17 benchmark/optimizer pairs, each profiled
twice; the seed code swept them in a sequential Python loop.
:class:`BatchAdvisor` fans a list of cases out across
:class:`~concurrent.futures.ProcessPoolExecutor` workers with

* **deterministic ordering** — results come back in submission order no
  matter which worker finishes first, so a parallel sweep is row-for-row
  identical to a sequential one;
* **per-case error capture** — a failing case records its traceback in its
  :class:`BatchResult` instead of killing the sweep;
* **registry-based job descriptions** — cases cross the process boundary as
  their registry ``case_id`` (setups hold lambdas and are not picklable);
  case objects that are not in the registry automatically fall back to the
  inline sequential path.

Workers rebuild their own :class:`~repro.api.session.AdvisingSession` from a
:class:`BatchConfig` of primitives (architecture flag, sample period, cache
directory), so every process shares the on-disk profile cache.

Since the service-layer API landed, :meth:`BatchAdvisor.advise` is a
deprecated adapter over :meth:`AdvisingSession.advise_many
<repro.api.session.AdvisingSession.advise_many>`; the generic
``run``/``run_cases`` fan-out remains the driver for custom per-case
computations (Table 3 outcomes, Figure 7 coverage rows).
"""

from __future__ import annotations

import functools
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Union

from repro.arch.machine import GpuArchitecture, get_architecture
from repro.pipeline.runner import (
    PipelineRunner,
    PipelineStep,
    ProgressCallback,
    ProgressEvent,
)
if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import BenchmarkCase

# repro.workloads is imported lazily inside the functions that need it:
# touching any of its modules constructs the whole 20+-module benchmark
# registry, which `import repro` (and every spawned pool worker) should
# not pay for unless a sweep actually runs.


@dataclass(frozen=True)
class BatchConfig:
    """Everything a worker process needs to rebuild the advising pipeline."""

    arch_flag: str = "sm_70"
    sample_period: int = 8
    cache_dir: Optional[str] = None
    jobs: int = 1
    simulation_scope: str = "single_wave"
    memory_model: str = "flat"

    @property
    def architecture(self) -> GpuArchitecture:
        return get_architecture(self.arch_flag)

    def build_session(self):
        """The :class:`~repro.api.session.AdvisingSession` this config describes."""
        from repro.api.session import AdvisingSession

        return AdvisingSession(
            architecture=self.architecture,
            sample_period=self.sample_period,
            cache=self.cache_dir,
            jobs=self.jobs,
            simulation_scope=self.simulation_scope,
            memory_model=self.memory_model,
        )

    def build_gpa(self):
        """Deprecated: use :meth:`build_session`."""
        warnings.warn(
            "BatchConfig.build_gpa is deprecated; use BatchConfig.build_session "
            "(see docs/MIGRATION.md)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.advisor.advisor import GPA

        return GPA(
            architecture=self.architecture,
            sample_period=self.sample_period,
            cache=self.cache_dir,
        )


@dataclass
class BatchResult:
    """The outcome of one case in a sweep: a value or a captured traceback."""

    index: int
    case_id: str
    value: Any = None
    error: Optional[str] = None
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def error_summary(error: Optional[str]) -> str:
    """The last non-empty line of a captured traceback, for one-line display."""
    lines = (error or "").strip().splitlines()
    return lines[-1] if lines else "unknown error"


#: Worker signature: ``worker(config, case_or_id) -> picklable value``.
CaseWorker = Callable[[BatchConfig, Union[str, "BenchmarkCase"]], Any]


def resolve_case(case_or_id: Union[str, "BenchmarkCase"]) -> "BenchmarkCase":
    """Accept a registry ``case_id`` or a :class:`BenchmarkCase` object."""
    from repro.workloads.registry import case_by_name

    if isinstance(case_or_id, str):
        return case_by_name(case_or_id)
    return case_or_id


def _is_registry_case(case: "BenchmarkCase") -> bool:
    from repro.workloads.registry import case_by_name

    try:
        return case_by_name(case.case_id) is case
    except KeyError:
        return False


# ----------------------------------------------------------------------
# Shared case computations (used by the sequential harnesses too, so the
# parallel and sequential paths cannot drift apart)
# ----------------------------------------------------------------------
def evaluate_case_outcome(
    case: BenchmarkCase, session, arch_flag: Optional[str] = None
) -> dict:
    """The Table 3 computation for one case, as a picklable plain dict.

    Profiles the baseline, runs the analyzer on it, profiles the
    hand-optimized variant, and derives the achieved/estimated speedups,
    the estimate error and the matched optimizer's rank.  ``session`` is an
    :class:`~repro.api.session.AdvisingSession`; a legacy ``GPA`` facade is
    accepted and unwrapped.
    """
    # Imported here: the evaluation package's __init__ pulls in the table3
    # harness, which itself builds on this module.
    from repro.api.request import request_for_case
    from repro.evaluation.metrics import relative_error

    session = getattr(session, "session", session)
    profiled_baseline = session.profile(
        request_for_case(case, "baseline", arch_flag=arch_flag)
    )
    report = session.advise_profiled(profiled_baseline)
    profiled_optimized = session.profile(
        request_for_case(case, "optimized", arch_flag=arch_flag)
    )

    baseline_cycles = profiled_baseline.kernel_cycles
    optimized_cycles = profiled_optimized.kernel_cycles
    achieved = baseline_cycles / optimized_cycles if optimized_cycles else 1.0

    advice = report.advice_for(case.optimizer_name)
    estimated = advice.estimated_speedup if advice is not None else 1.0
    applicable = [item.optimizer for item in report.advice if item.applicable]
    rank = (
        applicable.index(case.optimizer_name) + 1
        if case.optimizer_name in applicable
        else None
    )

    return {
        "case_id": case.case_id,
        "baseline_cycles": baseline_cycles,
        "optimized_cycles": optimized_cycles,
        "achieved_speedup": achieved,
        "estimated_speedup": estimated,
        "error": relative_error(estimated, achieved),
        "optimizer_rank": rank,
        "total_samples": profiled_baseline.profile.total_samples,
    }


def advise_case_report(config: BatchConfig, case_or_id, optimized: bool = False):
    """Profile + analyze one case variant; returns (case, report).

    The one resolve → retarget → advise sequence shared by the batch
    workers and the CLI's single-case path, now expressed as an advising
    request against the config's session.
    """
    from repro.api.request import request_for_case

    case = resolve_case(case_or_id)
    session = config.build_session()
    request = request_for_case(
        case, "optimized" if optimized else "baseline", arch_flag=config.arch_flag
    )
    profiled = session.profile(request)
    return case, session.advise_profiled(profiled)


def advise_case(config: BatchConfig, payload) -> dict:
    """Worker: profile + analyze one case variant, returning the report dict."""
    case_or_id, optimized = payload
    case, report = advise_case_report(config, case_or_id, optimized)
    return {
        "case": case.case_id,
        "kernel": report.kernel,
        "variant": "optimized" if optimized else "baseline",
        "arch": config.arch_flag,
        "report": report.to_dict(),
    }


def table3_case_worker(config: BatchConfig, case_or_id) -> dict:
    """Worker: one Table 3 row outcome."""
    case = resolve_case(case_or_id)
    session = config.build_session()
    return evaluate_case_outcome(case, session, arch_flag=config.arch_flag)


def _pool_call(worker: CaseWorker, config: BatchConfig, payload):
    """Run one job in a worker process, capturing its traceback."""
    started = time.perf_counter()
    try:
        value = worker(config, payload)
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - started
    return value, None, time.perf_counter() - started


class BatchAdvisor:
    """Sweeps benchmark cases through the pipeline, optionally in parallel."""

    def __init__(self, config: Optional[BatchConfig] = None, **overrides):
        if config is None:
            config = BatchConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config

    # ------------------------------------------------------------------
    # Generic fan-out
    # ------------------------------------------------------------------
    def run(
        self,
        worker: CaseWorker,
        payloads: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[BatchResult]:
        """Run ``worker(config, payload)`` for every payload.

        ``worker`` must be a module-level function and the payloads picklable
        when ``config.jobs > 1``.  Results preserve payload order.
        """
        payloads = list(payloads)
        labels = list(labels) if labels is not None else [str(p) for p in payloads]
        if self.config.jobs > 1 and len(payloads) > 1:
            return self._run_pool(worker, payloads, labels, progress)
        return self._run_inline(worker, payloads, labels, progress)

    def run_cases(
        self,
        worker: CaseWorker,
        cases: Sequence[BenchmarkCase],
        progress: Optional[ProgressCallback] = None,
    ) -> List[BatchResult]:
        """Fan case objects out to ``worker``, in parallel when safe.

        Cases cross process boundaries by ``case_id``; any case not backed by
        the registry forces the inline path (its builders hold closures that
        cannot be pickled).
        """
        cases = list(cases)
        labels = [case.case_id for case in cases]
        parallel_ok = (
            self.config.jobs > 1
            and len(cases) > 1
            and all(_is_registry_case(case) for case in cases)
        )
        if parallel_ok:
            return self._run_pool(worker, labels, labels, progress)
        return self._run_inline(worker, cases, labels, progress)

    # ------------------------------------------------------------------
    # High-level sweeps
    # ------------------------------------------------------------------
    def advise(
        self,
        case_ids: Optional[Sequence[str]] = None,
        optimized: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[BatchResult]:
        """Advise every named case (default: the full registry).

        .. deprecated:: 1.1
           Build :class:`~repro.api.request.AdvisingRequest` objects and use
           :meth:`AdvisingSession.advise_many
           <repro.api.session.AdvisingSession.advise_many>` (ordered) or
           :meth:`~repro.api.session.AdvisingSession.stream` (results as
           they complete).  This shim adapts the session results back into
           the legacy ``BatchResult`` dict shape.
        """
        warnings.warn(
            "BatchAdvisor.advise is deprecated; use AdvisingSession.advise_many "
            "or AdvisingSession.stream (see docs/MIGRATION.md)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.api.request import request_for_case
        from repro.workloads.registry import case_names

        ids = list(case_ids) if case_ids is not None else case_names()
        variant = "optimized" if optimized else "baseline"
        session = self.config.build_session()
        requests = [
            request_for_case(case_id, variant, arch_flag=self.config.arch_flag)
            for case_id in ids
        ]
        results = session.advise_many(requests, progress=progress)
        batch: List[BatchResult] = []
        for result in results:
            value = None
            if result.ok:
                value = {
                    "case": ids[result.index],
                    "kernel": result.report.kernel,
                    "variant": variant,
                    "arch": self.config.arch_flag,
                    "report": result.report.to_dict(),
                }
            batch.append(
                BatchResult(
                    index=result.index,
                    case_id=ids[result.index],
                    value=value,
                    error=result.error,
                    duration=result.duration,
                )
            )
        return batch

    def evaluate_table3(
        self,
        cases: Sequence[BenchmarkCase],
        progress: Optional[ProgressCallback] = None,
    ) -> List[BatchResult]:
        """Table 3 outcomes (plain dicts) for ``cases``, in order."""
        return self.run_cases(table3_case_worker, cases, progress=progress)

    # ------------------------------------------------------------------
    def _run_inline(self, worker, payloads, labels, progress) -> List[BatchResult]:
        plan = [
            PipelineStep(label, functools.partial(worker, self.config, payload))
            for label, payload in zip(labels, payloads)
        ]
        outcomes = PipelineRunner(progress).execute(plan)
        return [
            BatchResult(
                index=index,
                case_id=outcome.name,
                value=outcome.value,
                error=outcome.error,
                duration=outcome.duration,
            )
            for index, outcome in enumerate(outcomes)
        ]

    def _run_pool(self, worker, payloads, labels, progress) -> List[BatchResult]:
        total = len(payloads)
        results: List[Optional[BatchResult]] = [None] * total
        workers = min(self.config.jobs, total)
        emit = progress if progress is not None else (lambda event: None)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for index, payload in enumerate(payloads):
                future = pool.submit(_pool_call, worker, self.config, payload)
                futures[future] = index
            for future in as_completed(futures):
                index = futures[future]
                # The worker ran in another process, so its "start" could not
                # be observed live; emit start/done as an adjacent pair at
                # collection time.  Unlike the inline PipelineRunner, pairs
                # arrive in completion order, not submission order — consumers
                # must not assume event.index is monotonic.
                emit(ProgressEvent(labels[index], index, total, "start"))
                try:
                    value, error, duration = future.result()
                except Exception:
                    # Pool-level failure (e.g. the payload could not be
                    # pickled or the worker process died).
                    value, error, duration = None, traceback.format_exc(), 0.0
                results[index] = BatchResult(
                    index=index,
                    case_id=labels[index],
                    value=value,
                    error=error,
                    duration=duration,
                )
                status = "done" if error is None else "error"
                emit(
                    ProgressEvent(labels[index], index, total, status, duration, error)
                )
        missing = [index for index, result in enumerate(results) if result is None]
        if missing:
            # Callers zip results against their input positionally; a silently
            # shortened list would misattribute every following row.
            raise RuntimeError(f"pool sweep lost results for indices {missing}")
        return results
