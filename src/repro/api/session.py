"""The advising session: one configuration, every execution mode.

An :class:`AdvisingSession` owns the things that used to be re-specified at
every call site — the architecture model, the optimizer set, the sample
period, the profile cache, the worker count — and executes declarative
:class:`~repro.api.request.AdvisingRequest` objects against them:

* :meth:`AdvisingSession.advise` — run one request inline; failures are
  captured into the result, never raised;
* :meth:`AdvisingSession.advise_many` — run a batch, results in submission
  order;
* :meth:`AdvisingSession.stream` — an iterator yielding typed
  :class:`~repro.api.result.AdvisingResult` objects *as they complete*,
  fanned across a :class:`~concurrent.futures.ProcessPoolExecutor` when the
  session has ``jobs > 1`` and every request can be serialized.  Requests
  cross the pool boundary in their ``to_dict`` wire form, and results as the
  JSON text of theirs — the same envelope a service daemon stores and serves.

The session is the one advising front door: the CLI, the evaluation
harnesses and the service daemon are thin adapters over it.  This module
also owns the worker side of every process pool: :func:`_pool_advise` runs
a wire-form request on a per-process session built from six primitives
(:meth:`AdvisingSession._pool_config`, or a daemon's
``ServiceConfig.primitives()``), and both ``stream`` and the daemon submit it.
"""

from __future__ import annotations

import json
import time
import traceback
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.advisor.dynamic_analyzer import DynamicAnalyzer
from repro.advisor.report import AdviceReport
from repro.api.request import AdvisingRequest
from repro.api.result import AdvisingResult
from repro.api.schema import ApiValidationError
from repro.arch.machine import ArchitectureError, GpuArchitecture, VoltaV100, get_architecture
from repro.optimizers.base import Optimizer
from repro.optimizers.registry import OptimizerRegistry
from repro.pipeline.cache import ProfileCache, coerce_cache
from repro.pipeline.runner import ProgressCallback, ProgressEvent
from repro.pipeline.stages import ProfileRequest, ProfileStage, retarget
from repro.sampling.memory import check_memory_model
from repro.sampling.profiler import ProfiledKernel, check_simulation_scope
from repro.sampling.sample import KernelProfile
from repro.structure.program import ProgramStructure, build_program_structure

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.staticcheck.report import StaticReport


def reported_knobs(request: AdvisingRequest, defaults) -> dict:
    """The knobs a result for ``request`` reports, failed or not.

    Each is the request's own, else the one ``defaults`` carries (anything
    with ``arch_flag``, ``sample_period``, ``simulation_scope`` and
    ``memory_model`` attributes: a session, or a daemon's service config).
    """
    if request.source == "profile":
        # Nothing is simulated: report the sample period, scope and memory
        # model the loaded profile was actually collected with, not the
        # defaults.
        period = request.profile.statistics.sample_period
        scope = request.profile.statistics.simulation_scope
        memory_model = request.profile.statistics.memory_model
    else:
        period = request.sample_period or defaults.sample_period
        scope = request.simulation_scope or defaults.simulation_scope
        memory_model = request.memory_model or defaults.memory_model
    return {
        "arch_flag": request.arch_flag or defaults.arch_flag,
        "sample_period": period,
        "simulation_scope": scope,
        "memory_model": memory_model,
    }


class AdvisingSession:
    """Executes advising requests against one owned configuration."""

    def __init__(
        self,
        architecture: Union[None, str, GpuArchitecture] = None,
        optimizers: Optional[Iterable[Union[str, Optimizer]]] = None,
        sample_period: int = 8,
        cache: Union[None, str, ProfileCache] = None,
        jobs: int = 1,
        simulation_scope: str = "single_wave",
        memory_model: str = "flat",
    ):
        if sample_period <= 0:
            raise ApiValidationError(f"sample_period must be positive, got {sample_period}")
        if jobs < 1:
            raise ApiValidationError(f"jobs must be >= 1, got {jobs}")
        try:
            check_simulation_scope(simulation_scope)
        except ValueError as exc:
            raise ApiValidationError(str(exc)) from exc
        try:
            check_memory_model(memory_model)
        except ValueError as exc:
            raise ApiValidationError(str(exc)) from exc
        if isinstance(architecture, str):
            architecture = get_architecture(architecture)
        self.architecture = architecture or VoltaV100
        self.sample_period = sample_period
        self.simulation_scope = simulation_scope
        self.memory_model = memory_model
        self.cache = coerce_cache(cache)
        self.jobs = jobs

        self._optimizer_names, resolved, self._optimizers_poolable = (
            self._resolve_optimizers(optimizers)
        )
        self.optimizers: List[Optimizer] = resolved
        self.registry = OptimizerRegistry(resolved)

        # The default profile stage and analyzer, used by every request that
        # keeps the session's knobs; they seed the per-knob memos below.
        self.profile_stage = ProfileStage(
            self.architecture, sample_period=sample_period, cache=self.cache,
            simulation_scope=simulation_scope, memory_model=memory_model,
        )
        self.analyzer = DynamicAnalyzer(self.architecture, self.optimizers)
        self._profile_stages: Dict[Tuple[int, str, str], ProfileStage] = {
            (sample_period, simulation_scope, memory_model): self.profile_stage,
        }
        self._analyzers: Dict[Tuple[str, Optional[Tuple[str, ...]]], DynamicAnalyzer] = {
            (self.arch_flag, None): self.analyzer,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_optimizers(
        optimizers: Optional[Iterable[Union[str, Optimizer]]],
    ) -> Tuple[Optional[Tuple[str, ...]], List[Optimizer], bool]:
        """(names, instances, poolable) for the ``optimizers`` argument.

        ``None`` keeps the default Table 2 set; a list of names selects from
        the defaults (still expressible as primitives, so pool dispatch
        stays available); custom :class:`Optimizer` instances are used as
        given but pin the session to inline execution.
        """
        from repro.optimizers.registry import default_optimizers

        if optimizers is None:
            return None, default_optimizers(), True
        items = list(optimizers)
        if not items:
            raise ApiValidationError(
                "optimizers must name at least one optimizer (or be None "
                "for the default Table 2 set)"
            )
        if all(isinstance(item, str) for item in items):
            defaults = OptimizerRegistry(default_optimizers())
            try:
                return tuple(items), [defaults.get(name) for name in items], True
            except KeyError as exc:
                raise ApiValidationError(str(exc)) from exc
        return None, items, False

    @property
    def arch_flag(self) -> str:
        return self.architecture.arch_flag

    # ------------------------------------------------------------------
    # Stage selection
    # ------------------------------------------------------------------
    def _profile_stage_for(self, request: AdvisingRequest) -> ProfileStage:
        period = request.sample_period or self.sample_period
        scope = request.simulation_scope or self.simulation_scope
        memory_model = request.memory_model or self.memory_model
        key = (period, scope, memory_model)
        stage = self._profile_stages.get(key)
        if stage is None:
            stage = ProfileStage(
                architecture=self.architecture,
                sample_period=period,
                cache=self.cache,
                simulation_scope=scope,
                memory_model=memory_model,
            )
            self._profile_stages[key] = stage
        return stage

    def _analyzer_for(self, request: AdvisingRequest) -> DynamicAnalyzer:
        arch_flag = request.arch_flag or self.arch_flag
        key = (arch_flag, request.optimizers)
        analyzer = self._analyzers.get(key)
        if analyzer is None:
            architecture = (
                self.architecture if arch_flag == self.arch_flag
                else get_architecture(arch_flag)
            )
            if request.optimizers is None:
                selected = self.optimizers
            else:
                selected = [self.registry.get(name) for name in request.optimizers]
            analyzer = DynamicAnalyzer(architecture, selected)
            self._analyzers[key] = analyzer
        return analyzer

    # ------------------------------------------------------------------
    # Single-request execution
    # ------------------------------------------------------------------
    def profile(self, request: AdvisingRequest) -> ProfiledKernel:
        """Run the profiling stage of a case/binary request."""
        if request.source == "profile":
            raise ApiValidationError(
                "a profile-source request carries its profile already; "
                "nothing to simulate"
            )
        cubin, kernel, config, workload = self._resolve_setup(request)
        if request.arch_flag is not None:
            cubin = retarget(cubin, request.arch_flag)
        return self._profile_stage_for(request).run(
            ProfileRequest(cubin=cubin, kernel=kernel, config=config, workload=workload)
        )

    def lint(
        self, request: AdvisingRequest, strict_architecture: bool = False
    ) -> "StaticReport":
        """Run the static lint over a case/binary request — no simulation.

        Resolves the request's binary exactly like :meth:`profile` does
        (registry case or inline CUBIN, ``arch_flag`` retargeting included)
        and hands it to :class:`repro.staticcheck.engine.StaticChecker`.
        Purely additive: nothing here touches the profile cache or the
        advising pipeline, so dynamic results are byte-identical whether or
        not a lint ever ran.
        """
        # Imported lazily: sessions that never lint shouldn't pay for the
        # static-analysis layer at import time.
        from repro.sass.lint import cubin_ingest_ledger
        from repro.staticcheck.engine import StaticChecker

        if request.source == "profile":
            raise ApiValidationError(
                "a profile-source request has no binary to lint; "
                "build the request from a case or a cubin"
            )
        cubin, kernel, config, workload = self._resolve_setup(request)
        if request.arch_flag is not None:
            cubin = retarget(cubin, request.arch_flag)
        checker = StaticChecker(
            architecture=self.architecture, strict_architecture=strict_architecture
        )
        case_id = request.case_id if request.source == "case" else None
        return checker.check(
            cubin,
            kernel=kernel,
            config=config,
            workload=workload,
            case_id=case_id,
            # Binaries ingested from real disassembly (``request_for_listing``
            # requests) carry their listings; reconstruct the coverage
            # ledger so session lints match ``lint_listing`` output.
            ingest=cubin_ingest_ledger(cubin),
        )

    def analyze(self, profile: KernelProfile, structure: ProgramStructure) -> AdviceReport:
        """Run the analysis stage on an existing profile."""
        return self.analyzer.analyze(profile, structure)

    def advise_profiled(self, profiled: ProfiledKernel) -> AdviceReport:
        """Analyze an already-profiled kernel launch."""
        return self.analyze(profiled.profile, profiled.structure)

    def advise(self, request: AdvisingRequest, index: int = 0) -> AdvisingResult:
        """Execute one request inline; failures land in ``result.error``."""
        label = request.describe()
        knobs = reported_knobs(request, self)
        started = time.perf_counter()
        try:
            if request.source == "profile":
                profile = request.profile
                structure = build_program_structure(request.cubin)
            else:
                profiled = self.profile(request)
                profile, structure = profiled.profile, profiled.structure
            report = self._analyzer_for(request).analyze(profile, structure)
        except Exception:
            return AdvisingResult(
                request=request, index=index, label=label, **knobs,
                error=traceback.format_exc(),
                duration=time.perf_counter() - started,
            )
        return AdvisingResult(
            request=request, index=index, label=label, **knobs,
            report=report, duration=time.perf_counter() - started,
        )

    def report_for(self, request: AdvisingRequest) -> AdviceReport:
        """The report of one request, raising on failure."""
        return self.advise(request).require_report()

    @staticmethod
    def _resolve_setup(request: AdvisingRequest):
        if request.source == "binary":
            return request.cubin, request.kernel, request.config, request.workload
        # Imported lazily: resolving a case id constructs the full benchmark
        # registry, which sessions over inline binaries never need.
        from repro.workloads.registry import resolve_case

        case = resolve_case(request.case_id)
        setup = (
            case.build_optimized()
            if request.variant == "optimized"
            else case.build_baseline()
        )
        return setup.cubin, setup.kernel, setup.config, setup.workload

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def advise_many(
        self,
        requests: Sequence[AdvisingRequest],
        progress: Optional[ProgressCallback] = None,
    ) -> List[AdvisingResult]:
        """Execute every request; results come back in submission order."""
        results = list(self.stream(requests, progress=progress))
        results.sort(key=lambda result: result.index)
        return results

    def stream(
        self,
        requests: Sequence[AdvisingRequest],
        progress: Optional[ProgressCallback] = None,
    ) -> Iterator[AdvisingResult]:
        """Yield results in *completion* order (``result.index`` keeps the
        submission position).

        With ``jobs > 1`` and serializable requests the batch fans out
        across a process pool and results are yielded as workers finish;
        otherwise requests run inline, in order.  Pool-mode progress emits
        each request's start/done events as an adjacent pair at collection
        time (a worker's start cannot be observed live).
        """
        requests = list(requests)
        if self.jobs > 1 and len(requests) > 1:
            config = self._pool_config()
            payloads = self._serialized(requests) if config is not None else None
            if payloads is not None:
                yield from self._stream_pool(config, payloads, requests, progress)
                return
        yield from self._stream_inline(requests, progress)

    # ------------------------------------------------------------------
    def _stream_inline(self, requests, progress) -> Iterator[AdvisingResult]:
        emit = progress if progress is not None else (lambda event: None)
        total = len(requests)
        for index, request in enumerate(requests):
            label = request.describe()
            emit(ProgressEvent(label, index, total, "start"))
            result = self.advise(request, index=index)
            status = "done" if result.ok else "error"
            emit(ProgressEvent(label, index, total, status, result.duration, result.error))
            yield result

    def _stream_pool(self, config, payloads, requests, progress) -> Iterator[AdvisingResult]:
        # Imported here: loading multiprocessing costs every process that
        # never starts a pool (an inline advise, the CLI) its set-up time.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        emit = progress if progress is not None else (lambda event: None)
        total = len(requests)
        workers = min(self.jobs, total)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_pool_advise, config, payload, index): index
                for index, payload in enumerate(payloads)
            }
            for future in as_completed(futures):
                index = futures[future]
                request = requests[index]
                label = request.describe()
                try:
                    result = AdvisingResult.from_dict(
                        json.loads(future.result()["result"])
                    )
                except Exception:
                    # Pool-level failure: the worker process died or the
                    # payload could not cross the boundary.
                    result = AdvisingResult(
                        request=request, index=index, label=label,
                        **reported_knobs(request, self),
                        error=traceback.format_exc(),
                    )
                emit(ProgressEvent(label, index, total, "start"))
                status = "done" if result.ok else "error"
                emit(
                    ProgressEvent(
                        label, index, total, status, result.duration, result.error
                    )
                )
                yield result

    # ------------------------------------------------------------------
    def _pool_config(self) -> Optional[dict]:
        """The session as primitives for worker processes, or ``None``.

        ``None`` means the session cannot be rebuilt from primitives (a
        custom optimizer instance, an unregistered architecture model, an
        in-memory cache) and the batch must run inline.
        """
        if not self._optimizers_poolable:
            return None
        try:
            if get_architecture(self.arch_flag) != self.architecture:
                return None
        except ArchitectureError:
            return None
        return {
            "arch_flag": self.arch_flag,
            "sample_period": self.sample_period,
            "simulation_scope": self.simulation_scope,
            "memory_model": self.memory_model,
            "cache_dir": str(self.cache.directory) if self.cache is not None else None,
            "optimizer_names": (
                list(self._optimizer_names) if self._optimizer_names else None
            ),
        }

    @staticmethod
    def _serialized(requests: Sequence[AdvisingRequest]) -> Optional[List[dict]]:
        """Wire forms of all requests, or ``None`` if any cannot cross."""
        from repro.api.schema import ApiSerializationError

        payloads = []
        for request in requests:
            try:
                payloads.append(request.to_dict())
            except ApiSerializationError:
                return None
        return payloads


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
#: Per-process session cache: a pool worker serves a whole batch, or a
#: daemon's lifetime of jobs, and rebuilding the session (architecture
#: model, optimizer set, cache handle) per request would throw its warm
#: state away.
_WORKER_SESSIONS: Dict[str, AdvisingSession] = {}


def _session_from_primitives(config: dict) -> AdvisingSession:
    """A fresh inline session for the six primitives of
    :meth:`AdvisingSession._pool_config` (or ``ServiceConfig.primitives``)."""
    return AdvisingSession(
        architecture=config["arch_flag"],
        optimizers=config["optimizer_names"],
        sample_period=config["sample_period"],
        cache=config["cache_dir"],
        simulation_scope=config["simulation_scope"],
        memory_model=config["memory_model"],
    )


def _worker_session(config: dict) -> AdvisingSession:
    """This process's session for ``config``, built on first use."""
    key = repr(sorted(config.items()))
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        session = _WORKER_SESSIONS[key] = _session_from_primitives(config)
    return session


def _advise_with_session(session: AdvisingSession, payload: dict, index: int) -> dict:
    """Run one wire-form request on a session; report cache traffic deltas.

    The result is encoded here, once: ``"result"`` is the JSON text of its
    wire form, which the daemon stores and serves as is, and ``"error"`` is
    its captured error, so the daemon never decodes the text to settle.
    """
    cache = session.cache
    hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
    result = session.advise(AdvisingRequest.from_dict(payload), index=index)
    if cache is not None:
        hits, misses = cache.hits - hits, cache.misses - misses
    return {
        "result": json.dumps(result.to_dict()),
        "error": result.error,
        "cache_hits": hits,
        "cache_misses": misses,
    }


def _pool_advise(config: dict, payload: dict, index: int) -> dict:
    """Pool worker: run one wire-form request on this process's session."""
    return _advise_with_session(_worker_session(config), payload, index)
