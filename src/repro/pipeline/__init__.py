"""The staged advising pipeline.

Advising is two stages — *profile* (simulate a kernel launch and collect
PC samples) and *analyze* (blame, match, estimate; that stage is
:class:`~repro.advisor.dynamic_analyzer.DynamicAnalyzer`).  This package
makes the profiling stage explicit so it can be cached or skipped:

* :mod:`repro.pipeline.stages` — :class:`ProfileStage`, the typed unit
  every harness composes, and :func:`retarget`;
* :mod:`repro.pipeline.cache` — an on-disk profile cache keyed by a digest
  of (binary, kernel, launch config, workload, architecture, sample
  period), so re-running a sweep skips simulation entirely;
* :mod:`repro.pipeline.runner` — the progress events a batch of requests
  reports.

Batches of requests run through
:class:`~repro.api.session.AdvisingSession`, inline or across a process
pool.
"""

from repro.pipeline.cache import ProfileCache, profile_cache_key
from repro.pipeline.stages import ProfileRequest, ProfileStage, retarget
from repro.pipeline.runner import ProgressEvent

__all__ = [
    "ProfileCache",
    "ProfileRequest",
    "ProfileStage",
    "ProgressEvent",
    "profile_cache_key",
    "retarget",
]
