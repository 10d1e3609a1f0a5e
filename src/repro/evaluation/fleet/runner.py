"""The shard runner: one shard's units, checkpointed unit by unit.

:class:`ShardRunner` executes the units of one shard of an
:class:`~repro.evaluation.fleet.plan.EvaluationPlan` through anything that
satisfies the :class:`~repro.api.advisor.Advisor` protocol — an inline
:class:`~repro.api.session.AdvisingSession` by default, or a
:class:`~repro.service.ServiceClient` when the sweep is pointed at a
running advising daemon (``--via-service``).  Because every knob of a
:class:`~repro.evaluation.fleet.plan.SweepConfiguration` rides on the
:class:`~repro.api.request.AdvisingRequest` itself, one advisor serves
every configuration in the shard, and the numbers are bit-identical to the
serial :func:`~repro.evaluation.table3.evaluate_table3` harness: both
build rows with :func:`~repro.evaluation.metrics.case_outcome`, and the
simulator is deterministic.

Failure taxonomy (this drives the CI retry policy, see
:mod:`repro.evaluation.exitcodes`):

* a **case failure** — the advisor captured an evaluation error for the
  unit — is *data*: it is checkpointed like a success and lands in the
  merge step's failure ledger.  Re-running would reproduce it.
* an **infrastructure failure** — the advisor itself raised (dead daemon,
  broken transport), or checkpoint I/O failed — propagates out of
  :meth:`ShardRunner.run`.  Nothing is recorded for the in-flight unit, so
  a retried leg resumes exactly there.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.api.result import error_summary
from repro.evaluation.fleet.checkpoint import (
    ShardCheckpoint,
    UnitRecord,
    load_checkpoint,
    store_checkpoint,
)
from repro.evaluation.fleet.plan import EvaluationPlan, FleetError, WorkUnit
from repro.evaluation.metrics import case_outcome
from repro.pipeline.runner import ProgressCallback, ProgressEvent


class CaseFailure(Exception):
    """One unit's case failed evaluation; carries the captured traceback."""

    def __init__(self, error: str):
        super().__init__(error_summary(error))
        self.error = error


def unit_request(unit: WorkUnit, variant: str):
    """The advising request for one variant of a unit.

    Every configuration knob is set explicitly on the request, so the
    outcome does not depend on how the executing advisor (or the daemon
    behind it) happens to be configured.
    """
    from repro.api.request import request_for_case

    config = unit.config
    return request_for_case(
        unit.case_id,
        variant,
        arch_flag=config.arch_flag,
        sample_period=config.sample_period,
        simulation_scope=config.simulation_scope,
        memory_model=config.memory_model,
    )


def evaluate_unit(advisor, unit: WorkUnit) -> dict:
    """One unit's Table 3 outcome, derived from two ``advise`` calls.

    The row is :func:`~repro.evaluation.metrics.case_outcome`, the same
    computation :func:`~repro.evaluation.table3.evaluate_table3` uses,
    expressed against the :class:`~repro.api.advisor.Advisor` protocol so
    it runs equally over an inline session or a service client.  Raises
    :class:`CaseFailure` when either variant's advising failed.
    """
    from repro.workloads.registry import case_by_name

    case = case_by_name(unit.case_id)
    baseline = advisor.advise(unit_request(unit, "baseline"))
    if not baseline.ok:
        raise CaseFailure(baseline.error or "baseline advising failed")
    optimized = advisor.advise(unit_request(unit, "optimized"))
    if not optimized.ok:
        raise CaseFailure(optimized.error or "optimized advising failed")
    return case_outcome(case, baseline.report, optimized.report)


@dataclass
class ShardRunSummary:
    """What one :meth:`ShardRunner.run` call did."""

    shard: int
    total: int
    #: Units skipped because the checkpoint already held their outcome.
    skipped: int = 0
    #: Units executed (successes and case failures) in this invocation.
    executed: int = 0
    #: Case ids of the units whose evaluation failed, across the whole
    #: checkpoint (resumed failures included).
    failed: List[str] = field(default_factory=list)
    #: True when ``stop_after`` preempted the run before the shard was done.
    interrupted: bool = False
    #: Why an on-disk checkpoint was ignored, if one was ("" otherwise).
    resume_note: str = ""
    checkpoint: Optional[ShardCheckpoint] = None

    @property
    def complete(self) -> bool:
        return not self.interrupted and (self.skipped + self.executed) == self.total


class ShardRunner:
    """Runs one shard of a plan, checkpointing after every unit.

    ``advisor`` is anything satisfying the :class:`~repro.api.advisor
    .Advisor` protocol (default: a fresh inline session built on first
    use); ``execute`` overrides the per-unit computation (tests inject
    fakes here).  ``stop_after`` stops after that many *newly executed*
    units — cooperative preemption for smoke tests — while ``kill_after``
    delivers a real ``SIGKILL`` to this very process after that many
    units, which is the fault injection the resume contract is proven
    against.
    """

    def __init__(
        self,
        plan: EvaluationPlan,
        shard: int,
        checkpoint_dir: Union[str, Path],
        advisor=None,
        execute: Optional[Callable[[WorkUnit], dict]] = None,
        cache_dir: Optional[str] = None,
        stop_after: Optional[int] = None,
        kill_after: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ):
        if not 0 <= shard < plan.num_shards:
            raise FleetError(
                f"shard {shard} out of range for a {plan.num_shards}-shard plan"
            )
        if stop_after is not None and stop_after < 1:
            raise FleetError(f"stop_after must be >= 1, got {stop_after}")
        if kill_after is not None and kill_after < 1:
            raise FleetError(f"kill_after must be >= 1, got {kill_after}")
        self.plan = plan
        self.shard = shard
        self.checkpoint_dir = Path(checkpoint_dir)
        self._advisor = advisor
        self._execute = execute
        self.cache_dir = cache_dir
        self.stop_after = stop_after
        self.kill_after = kill_after
        self.progress = progress or (lambda event: None)

    # ------------------------------------------------------------------
    def _resolve_execute(self) -> Callable[[WorkUnit], dict]:
        if self._execute is not None:
            return self._execute
        advisor = self._advisor
        if advisor is None:
            # Built lazily so planning/merging never pays for a session.
            from repro.api.session import AdvisingSession

            advisor = AdvisingSession(cache=self.cache_dir)
            self._advisor = advisor
        return lambda unit: evaluate_unit(advisor, unit)

    # ------------------------------------------------------------------
    def run(self) -> ShardRunSummary:
        """Execute every unit of the shard not already checkpointed."""
        units = self.plan.shard_units(self.shard)
        checkpoint, resume_note = load_checkpoint(
            self.checkpoint_dir, self.plan.plan_id, self.shard
        )
        summary = ShardRunSummary(
            shard=self.shard,
            total=len(units),
            resume_note=resume_note,
            checkpoint=checkpoint,
        )
        # Write the (possibly empty) checkpoint up front: an empty shard
        # still leaves a file behind, so CI artifact uploads never miss.
        store_checkpoint(self.checkpoint_dir, checkpoint)

        pending = [
            unit for unit in units if unit.fingerprint not in checkpoint.entries
        ]
        summary.skipped = len(units) - len(pending)
        execute = self._resolve_execute() if pending else None
        total = len(units)
        for offset, unit in enumerate(pending):
            if self.stop_after is not None and summary.executed >= self.stop_after:
                summary.interrupted = True
                break
            index = summary.skipped + offset
            label = f"{unit.case_id} [{unit.config.key}]"
            self.progress(ProgressEvent(label, index, total, "start"))
            started = time.perf_counter()
            record = UnitRecord(
                fingerprint=unit.fingerprint,
                case_id=unit.case_id,
                config_key=unit.config.key,
            )
            try:
                record.outcome = execute(unit)
            except CaseFailure as failure:
                record.error = failure.error
            record.duration = time.perf_counter() - started
            checkpoint.record(record)
            store_checkpoint(self.checkpoint_dir, checkpoint)
            summary.executed += 1
            status = "done" if record.ok else "error"
            self.progress(
                ProgressEvent(label, index, total, status, record.duration, record.error)
            )
            if self.kill_after is not None and summary.executed >= self.kill_after:
                # Fault injection: die the hard way, mid-shard, exactly as a
                # preempted CI runner would.  The checkpoint just written is
                # what the next invocation resumes from.
                os.kill(os.getpid(), signal.SIGKILL)

        summary.failed = sorted(
            record.case_id
            for unit in units
            if (record := checkpoint.entries.get(unit.fingerprint)) is not None
            and not record.ok
        )
        return summary


__all__ = [
    "CaseFailure",
    "ShardRunSummary",
    "ShardRunner",
    "evaluate_unit",
    "unit_request",
]
