"""repro — a reproduction of *GPA: A GPU Performance Advisor Based on
Instruction Sampling* (Zhou, Meng, Sai, Mellor-Crummey — CGO 2021).

The package is organised as the paper's Figure 2:

* :mod:`repro.isa`, :mod:`repro.cubin`, :mod:`repro.cfg`,
  :mod:`repro.structure`, :mod:`repro.arch` — the static side: a SASS-like
  ISA, CUBIN-like binaries, control flow / loop analysis, program structure
  and architectural features;
* :mod:`repro.sampling` — the CUPTI/V100 substitute: an SM-level execution
  simulator that produces PC samples and launch statistics;
* :mod:`repro.blame`, :mod:`repro.optimizers`, :mod:`repro.estimators` — the
  dynamic analyzer: the instruction blamer, the Table 2 optimizers and the
  Equation 2-10 estimators;
* :mod:`repro.staticcheck` — the static lint over each binary's one
  program structure: dataflow analyses and typed diagnostics, no
  simulation;
* :mod:`repro.advisor` — the dynamic analyzer, the report generator and
  the CLI;
* :mod:`repro.pipeline` — the staged advising pipeline: the explicit
  profile stage and the on-disk profile cache;
* :mod:`repro.workloads`, :mod:`repro.evaluation` — the synthetic Rodinia /
  application kernels and the harness that regenerates Table 3 and Figures
  1 and 7.

* :mod:`repro.api` — the versioned service-layer API: declarative
  :class:`~repro.api.request.AdvisingRequest` objects, the
  :class:`~repro.api.session.AdvisingSession` that executes them (inline,
  ordered batch, or streamed from a process pool), and lossless
  request/result serialization under an explicit schema version;
* :mod:`repro.service` — the persistent advising daemon: a bounded job
  queue with backpressure, a TTL-evicting SQLite job store (in memory, or
  on disk with ``--store``), a versioned JSON-over-HTTP protocol (``gpa-advise serve``) and the
  :class:`~repro.service.client.ServiceClient` whose results are
  bit-identical to inline advising.

Quickstart::

    from repro import AdvisingSession, render_report, request_for_case

    session = AdvisingSession(sample_period=8)
    request = request_for_case("rodinia/hotspot:strength_reduction")
    print(render_report(session.report_for(request)))

Batch sweeps (with caching and process parallelism) stream through the same
session::

    session = AdvisingSession(jobs=4, cache=".gpa-cache")
    requests = [request_for_case(name)
                for name in ("rodinia/bfs:loop_unrolling", "rodinia/nw:block_increase")]
    for result in session.stream(requests):   # typed results, completion order
        print(result.label, result.ok, f"{result.duration:.2f}s")
"""

from repro.advisor.report import AdviceReport, render_report
from repro.api.advisor import Advisor
from repro.api.request import AdvisingRequest, request_for_case, request_for_listing
from repro.api.result import AdvisingResult
from repro.api.schema import API_SCHEMA_VERSION
from repro.api.session import AdvisingSession
from repro.arch.machine import GpuArchitecture, VoltaV100, get_architecture
from repro.pipeline.cache import ProfileCache, profile_cache_key
from repro.pipeline.stages import ProfileRequest, ProfileStage
from repro.blame.attribution import BlameResult, InstructionBlamer
from repro.cubin.binary import Cubin, Function, FunctionVisibility
from repro.cubin.builder import CubinBuilder, KernelBuilder
from repro.optimizers.base import OptimizationAdvice, Optimizer, OptimizerCategory
from repro.optimizers.registry import OptimizerRegistry, default_optimizers
from repro.sampling.gpu import GpuSimulationResult, GpuSimulator
from repro.sampling.memory import MEMORY_MODELS, MemoryStatistics
from repro.sampling.profiler import SIMULATION_SCOPES, ProfiledKernel, Profiler
from repro.sampling.sample import KernelProfile, LaunchConfig, LaunchStatistics
from repro.sampling.stall_reasons import DetailedStallReason, StallReason
from repro.sampling.workload import WorkloadSpec
from repro.service.auth import AuthPolicy, TokenBucket
from repro.service.client import ServiceClient
from repro.service.daemon import AdvisingDaemon, ServiceConfig
from repro.service.repository import JobRepository
from repro.staticcheck.engine import StaticChecker
from repro.staticcheck.report import StaticDiagnostic, StaticReport, render_static_report
from repro.structure.program import ProgramStructure, build_program_structure

__version__ = "19.0.0"

__all__ = [
    "API_SCHEMA_VERSION",
    "AdviceReport",
    "Advisor",
    "AdvisingDaemon",
    "AdvisingRequest",
    "AdvisingResult",
    "AdvisingSession",
    "AuthPolicy",
    "BlameResult",
    "Cubin",
    "CubinBuilder",
    "DetailedStallReason",
    "Function",
    "FunctionVisibility",
    "GpuArchitecture",
    "GpuSimulationResult",
    "GpuSimulator",
    "InstructionBlamer",
    "JobRepository",
    "KernelBuilder",
    "KernelProfile",
    "LaunchConfig",
    "LaunchStatistics",
    "OptimizationAdvice",
    "Optimizer",
    "OptimizerCategory",
    "OptimizerRegistry",
    "ProfileCache",
    "ProfileRequest",
    "ProfileStage",
    "ProfiledKernel",
    "Profiler",
    "ProgramStructure",
    "ServiceClient",
    "ServiceConfig",
    "MEMORY_MODELS",
    "MemoryStatistics",
    "SIMULATION_SCOPES",
    "profile_cache_key",
    "request_for_case",
    "request_for_listing",
    "StallReason",
    "StaticChecker",
    "TokenBucket",
    "StaticDiagnostic",
    "StaticReport",
    "VoltaV100",
    "WorkloadSpec",
    "build_program_structure",
    "default_optimizers",
    "get_architecture",
    "render_report",
    "render_static_report",
    "__version__",
]
