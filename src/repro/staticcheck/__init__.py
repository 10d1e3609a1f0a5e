"""Static analysis over kernel CFGs — lint without simulation.

This package is the static half the paper's advisor implies but the
simulation pipeline never needed: dataflow analyses over the recovered
control-flow graphs, plus a typed lint rule set, surfaced as deterministic
:class:`~repro.staticcheck.report.StaticReport` wire forms.

Layers, bottom up:

* :mod:`repro.staticcheck.dataflow` — the generic worklist solver
  (forward/backward) every analysis instantiates, plus post-dominators;
* :mod:`repro.staticcheck.liveness` — register liveness, live-range
  pressure, dead writes;
* :mod:`repro.staticcheck.depth` — static dependency-depth / ILP estimates;
* :mod:`repro.staticcheck.rules` — the diagnostics (divergence taint,
  barrier hazards, access-pattern rules, unreachable code);
* :mod:`repro.staticcheck.engine` — :class:`StaticChecker`, which runs it
  all over a CUBIN's one program structure (the CFGs profiling and blame
  share);
* :mod:`repro.staticcheck.report` — ``StaticDiagnostic``/``StaticReport``
  wire forms (versioned envelopes, byte-stable JSON);
* :mod:`repro.staticcheck.crosscheck` — annotating dynamic advisories with
  static corroboration.

Entry points: :meth:`repro.api.session.AdvisingSession.lint` for a case
or binary request (what ``gpa-advise lint``, ``POST /v1/lint`` and
``ServiceClient.lint`` run), ``StaticChecker().check(cubin, ...)`` for a
bare binary, and :func:`repro.sass.lint_listing` /
:func:`repro.sass.lint_file` for disassembly listings.
"""

from repro.staticcheck.crosscheck import cross_check
from repro.staticcheck.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowProblem,
    DataflowSolution,
    compute_post_dominators,
    reachable_blocks,
    solve_dataflow,
)
from repro.staticcheck.depth import DepthAnalysis, estimate_depths
from repro.staticcheck.engine import StaticChecker
from repro.staticcheck.liveness import LivenessAnalysis, analyze_liveness
from repro.staticcheck.report import (
    FunctionLint,
    StaticDiagnostic,
    StaticReport,
    render_static_report,
)
from repro.staticcheck.rules import (
    DEFAULT_RULES,
    LintContext,
    LintRule,
    find_divergent_branches,
)

__all__ = [
    "BACKWARD",
    "DEFAULT_RULES",
    "FORWARD",
    "DataflowProblem",
    "DataflowSolution",
    "DepthAnalysis",
    "FunctionLint",
    "LintContext",
    "LintRule",
    "LivenessAnalysis",
    "StaticChecker",
    "StaticDiagnostic",
    "StaticReport",
    "analyze_liveness",
    "compute_post_dominators",
    "cross_check",
    "estimate_depths",
    "find_divergent_branches",
    "reachable_blocks",
    "render_static_report",
    "solve_dataflow",
]
