"""The SM simulator core.

:class:`VectorSMSimulator` executes per-warp dynamic traces on one streaming
multiprocessor and produces the PC samples GPA consumes: the profiler's
single-wave scope runs one, and the whole-GPU engine runs one per SM.
``docs/SIMULATOR.md`` states the scheduling semantics (scheduler
assignment, loose round-robin issue, scoreboards and barrier registers,
``BAR.SYNC``, the two memory models, fetch stalls, observation-neutral
sampling and skip-ahead) and how to extend them.

The core keeps *no per-op objects* on its hot path.  A trace is a list of
packed records, built by the trace walk
(:func:`~repro.sampling.trace.generate_warp_trace`), so ``simulate()``
steps on it without visiting its ops first:

* **Op streams** — one packed record per dynamic op, carrying the
  precomputed facts both scheduler phases need: a check-phase flag word
  (fetch-stall / wait-mask / BAR / throttled-memory bits), the wait mask as
  a plain tuple, used/defined register indices, the control-code barrier
  slots, precomputed fixed-op latency (``architecture.latency`` never runs
  inside the loop), precomputed ``max(1, ...)`` latency/stall increments,
  the access's address and stride, and the op's sample site.  Under the
  hierarchy memory model an issued access hands the hierarchy the
  memoized pattern of its address's phase
  (:func:`~repro.sampling.memory.sector_pattern`) and the shift to add to
  it, so no sector list is built.  Ops with no dynamic
  state (the common fixed-latency ALU op) share one record per
  instruction.
* **Warp state** — PC indices, blocked-until cycles, fetch timers, barrier
  membership and finished flags live in flat per-warp arrays; the
  fixed-latency scoreboard is a dense table of ready-cycles, one row of
  256 registers per warp, instead of per-warp dicts.

The event loop visits only the schedulers due at the current cycle (whose
earliest possible issue cycle has come) and scans each one's warps in
round-robin order.  The PC sampler reads
the sampled warp's cached stall reason and changes no state, so the
simulated timing (``wave_cycles``, issued instructions, memory statistics)
is the same at every sample period.  Stall and issue counts keep
first-sample order, which results serialize unsorted.  The speed comes
from keeping the loop on plain ints:

* one tuple index replaces every chain of attribute dispatches, all per-op
  ``max()``/latency work is hoisted out of the loop, and an issued
  memory access is one memoized pattern lookup plus one hierarchy call;
* stall reasons are small-int codes, and every record carries the number
  of its ``(function, offset)`` *site* in its program's site table, so a
  sample bumps one int-keyed counter; ``StallReason`` members and
  ``(function, offset)`` keys are looked up once per call, when the result
  is assembled;
* the scheduler scan walks a precomputed ``(next_slot, warp)`` order per
  start slot and tests one flag word.  It checks an op inline when the op
  has no check flag (the register scoreboard alone) or only the wait mask
  (its barriers, then the scoreboard), and issues a plain fixed-latency op
  inline too.

Under either memory model the scan also skips the check of a warp that is
still throttled: it sleeps until the memoized
:attr:`~repro.sampling.memory.TransactionBudget.throttle_reopen` cycle of
the SM's transaction budget (the flat budget, or the hierarchy's MSHRs).

Stepping is pure Python: per-SM warp populations (8–64) sit far below any
array library's vectorization break-even for this access pattern.
``docs/SIMULATOR.md`` also documents the record layout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.machine import GpuArchitecture
from repro.isa.registers import ZERO_REGISTER_INDEX
from repro.sampling.memory import (
    MemoryHierarchy,
    MemoryStatistics,
    TransactionBudget,
    check_memory_model,
    sector_pattern,
)
from repro.sampling.sample import PCSample
from repro.sampling.stall_reasons import StallReason
from repro.sampling.trace import (
    _CHECK_MASK,
    _CODE_OF,
    _F_BAR,
    _F_FETCH,
    _F_FIXED,
    _F_READ_BAR,
    _F_THROTTLE,
    _F_WAIT,
    _F_WRITE_BAR,
    _REASONS,
)

#: Default bound on the simulation loop; shared by the profiler and the
#: pipeline cache key so a truncated simulation never replays as a full one.
DEFAULT_MAX_CYCLES = 4_000_000

_FAR_FUTURE = 1 << 60

#: Columns of the dense register scoreboard: register indices run up to
#: ``RZ``'s (``RegisterOperand`` rejects anything higher), so no record
#: needs scanning to size it.
_NUM_REGS = ZERO_REGISTER_INDEX + 1


@dataclass
class SimulationResult:
    """Raw output of one simulated wave on one SM."""

    kernel: str
    wave_cycles: int
    #: (function, offset) -> {reason: latency sample count}
    stall_counts: Dict[Tuple[str, int], Dict[StallReason, int]]
    #: (function, offset) -> active (issue) sample count
    issue_counts: Dict[Tuple[str, int], int]
    active_samples: int
    latency_samples: int
    #: Dynamic instructions actually issued (all warps).
    issued_instructions: int
    #: Raw samples, kept only when requested.
    samples: List[PCSample] = field(default_factory=list)
    #: Memory-hierarchy counters (``None`` under the flat memory model).
    memory: Optional[MemoryStatistics] = None

    @property
    def total_samples(self) -> int:
        return self.active_samples + self.latency_samples


# ----------------------------------------------------------------------
# Stall codes.  The step loop carries stall reasons as small ints: a code is
# the member's index in ``_REASONS`` (defined with the record layout in
# repro.sampling.trace), and ``_REASONS[code]`` turns it back into the
# member where a PCSample or the result is built.
_NUM_REASONS = len(_REASONS)
_R_SELECTED = _CODE_OF[StallReason.SELECTED]
_R_EXEC_DEP = _CODE_OF[StallReason.EXECUTION_DEPENDENCY]
_R_SYNC = _CODE_OF[StallReason.SYNCHRONIZATION]
_R_THROTTLE = _CODE_OF[StallReason.MEMORY_THROTTLE]
_R_FETCH = _CODE_OF[StallReason.INSTRUCTION_FETCH]
_R_OTHER = _CODE_OF[StallReason.OTHER]

# ----------------------------------------------------------------------
# The packed-record layout (one tuple per dynamic op) and its flag bits are
# defined in repro.sampling.trace, which builds the records.  Slot 8 is a
# stall code; slot 16 numbers the op's (function, offset) in the program's
# site table, slot 17.


def _pack_warp(trace: Sequence[tuple], sites: Sequence[Tuple[str, int]]) -> Sequence[tuple]:
    """One warp's records, ready to step.

    The trace walk already emits the records the step loop reads, so the
    per-warp work left is a check: the warp's records must number their
    sites in ``sites``, the site table the call resolves every sample
    against.  Warps traced from another program would charge their samples
    to the wrong ``(function, offset)``.
    """
    if trace and trace[0][17] is not sites:
        raise ValueError("every warp of one simulate() call must be traced from one program")
    return trace


def _scan_orders(warps: Sequence[int]) -> List[Tuple[Tuple[int, int], ...]]:
    """Per start slot, one scheduler's ``(next_slot, warp)`` pairs in scan order.

    ``next_slot`` is the slot after the warp's, wrapped round: the start of
    the order that resumes the round robin past that warp.  The scan and
    the sampler's warp pick walk ``orders[start]`` and resume at the
    chosen pair's ``next_slot``, so they do no modular arithmetic.  A
    scheduler without warps gets one empty order, so its scan finds
    nothing.
    """
    count = len(warps)
    pairs = [((slot + 1) % count, warp) for slot, warp in enumerate(warps)]
    return [tuple(pairs[start:] + pairs[:start]) for start in range(count)] or [()]


class VectorSMSimulator:
    """Simulates one SM over packed per-op records and collects PC samples."""

    def __init__(
        self,
        architecture: GpuArchitecture,
        sample_period: int = 32,
        keep_samples: bool = False,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        memory_model: str = "flat",
    ):
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        self.architecture = architecture
        self.sample_period = sample_period
        self.keep_samples = keep_samples
        self.max_cycles = max_cycles
        self.memory_model = check_memory_model(memory_model)

    # ------------------------------------------------------------------
    def simulate(
        self,
        kernel: str,
        traces: Sequence[List[tuple]],
        block_of_warp: Sequence[int],
        sm_id: int = 0,
    ) -> SimulationResult:
        """Run one wave of warps to completion and return the sample aggregates."""
        if len(traces) != len(block_of_warp):
            raise ValueError("traces and block_of_warp must have the same length")
        if not traces:
            raise ValueError("cannot simulate an empty set of warps")

        arch = self.architecture
        num_schedulers = arch.schedulers_per_sm
        num_warps = len(traces)
        hierarchy: Optional[MemoryHierarchy] = None
        if self.memory_model == "hierarchy":
            hierarchy = MemoryHierarchy(arch.memory)
            budget: TransactionBudget = hierarchy
        else:
            budget = TransactionBudget(arch.max_outstanding_memory_requests)
        sector_bytes = arch.memory.sector_bytes
        warp_size = arch.warp_size

        #: site -> (function, offset): the program's site table, which every
        #: record carries in slot 17.
        site_keys = next((trace[0][17] for trace in traces if trace), ())
        recs_of_warp = [_pack_warp(trace, site_keys) for trace in traces]

        # ---- flat warp-state arrays ------------------------------------
        op_count = [len(records) for records in recs_of_warp]
        idx = [0] * num_warps
        #: The cycle before which warp ``w`` cannot issue: the end of its
        #: last op's stall, or a failed check's recheck cycle.  A finished
        #: warp is blocked forever.
        blocked_until = [0 if count else _FAR_FUTURE for count in op_count]
        finished = [count == 0 for count in op_count]
        fetch_ready: List[Optional[int]] = [None] * num_warps
        fetch_done_idx = [-1] * num_warps
        sync_arrived = [False] * num_warps
        sync_released = [False] * num_warps
        last_reason = [_R_OTHER] * num_warps
        barrier_clear = [[0, 0, 0, 0, 0, 0] for _ in range(num_warps)]
        barrier_reason = [[_R_EXEC_DEP] * 6 for _ in range(num_warps)]
        #: Dense scoreboard: reg_ready[w][r] = cycle register r is ready.
        reg_ready = [[0] * _NUM_REGS for _ in range(num_warps)]

        #: rotations[s][start]: scheduler s's scan order from slot ``start``;
        #: warps are dealt to schedulers round-robin.
        rotations = [
            _scan_orders(range(s, num_warps, num_schedulers))
            for s in range(num_schedulers)
        ]
        warps_of_block: Dict[int, List[int]] = defaultdict(list)
        for w in range(num_warps):
            warps_of_block[block_of_warp[w]].append(w)
        barrier_arrived: Dict[int, set] = defaultdict(set)

        #: Latency samples per ``site * _NUM_REASONS + code`` and active
        #: samples per site, both in first-sample order.
        stall_codes: Dict[int, int] = defaultdict(int)
        issue_sites: Dict[int, int] = defaultdict(int)
        samples: List[PCSample] = []
        keep_samples = self.keep_samples
        active_samples = 0
        latency_samples = 0
        issued_instructions = 0

        last_issued_slot = [0] * num_schedulers
        sample_pointer = [0] * num_schedulers
        unfinished = sum(1 for done in finished if not done)

        cycle = 0
        next_sample_cycle = 0
        sample_index = 0
        barrier_dirty = False

        # ------------------------------------------------------------------
        def check(w: int, now: int) -> Tuple[bool, int, int]:
            """Whether warp ``w`` can issue at ``now``; else (stall code, recheck).

            The scheduler scan inlines the check of an op with no check flag
            or with the wait mask alone, and calls in here only for a warp
            past its ``blocked_until`` whose op carries a fetch stall, BAR or
            the throttle.  An op that combines the wait mask with one of
            those takes the wait-mask branch below, which the inline copy
            must match.
            """
            nonlocal barrier_dirty
            i = idx[w]
            rec = recs_of_warp[w][i]
            flags = rec[0]

            # Instruction fetch stall charged to this op.
            if flags & _F_FETCH and fetch_done_idx[w] != i:
                ready_at = fetch_ready[w]
                if ready_at is None:
                    ready_at = fetch_ready[w] = now + rec[10]
                if now < ready_at:
                    return False, _R_FETCH, ready_at
                fetch_done_idx[w] = i
                fetch_ready[w] = None

            # Barrier wait mask (variable-latency dependencies).
            if flags & _F_WAIT:
                latest = -1
                latest_reason = _R_EXEC_DEP
                clears = barrier_clear[w]
                for bar in rec[1]:
                    clear = clears[bar]
                    if clear > latest:
                        latest = clear
                        latest_reason = barrier_reason[w][bar]
                if now < latest:
                    return False, latest_reason, latest

            # Register scoreboard (fixed-latency dependencies).
            latest = 0
            regs = reg_ready[w]
            for r in rec[2]:
                ready = regs[r]
                if ready > latest:
                    latest = ready
            if now < latest:
                return False, _R_EXEC_DEP, latest

            # Block-wide synchronization.
            if flags & _F_BAR and not sync_released[w]:
                if not sync_arrived[w]:
                    sync_arrived[w] = True
                    barrier_arrived[block_of_warp[w]].add(w)
                    barrier_dirty = True
                return False, _R_SYNC, _FAR_FUTURE

            # Memory throttle.
            if flags & _F_THROTTLE:
                recheck = budget.backpressure(now)
                if recheck is not None:
                    return False, _R_THROTTLE, recheck

            return True, _R_SELECTED, now

        # ------------------------------------------------------------------
        def issue(w: int, now: int) -> None:
            nonlocal unfinished, issued_instructions, barrier_dirty
            i = idx[w]
            (flags, _wait, _used, write_barrier, read_barrier, stall_inc,
             fixed_latency, defined, dep_reason, _offset, _fetch, mem_inc,
             read_hold, transactions, address, stride, _site, _sites
             ) = recs_of_warp[w][i]

            is_hierarchy_memory = hierarchy is not None and flags & _F_THROTTLE
            if is_hierarchy_memory:
                if stride > 0:
                    # Coalescing is shift-invariant: the access's sectors are
                    # the pattern of the address's phase within its sector,
                    # shifted by the rest of the address.
                    phase = address % sector_bytes
                    sectors = sector_pattern(phase, stride, warp_size, sector_bytes)
                    shift = address - phase
                else:
                    sectors = hierarchy.fallback_sectors(transactions)
                    shift = 0
                memory_completion = hierarchy.access_sectors(sectors, now, shift)

            if flags & _F_WRITE_BAR:
                if is_hierarchy_memory:
                    clear = max(now + 1, memory_completion)
                else:
                    clear = now + mem_inc
                barrier_clear[w][write_barrier] = clear
                barrier_reason[w][write_barrier] = dep_reason
            if flags & _F_READ_BAR:
                if is_hierarchy_memory:
                    hold = max(1, min(memory_completion - now, 30))
                else:
                    hold = read_hold
                barrier_clear[w][read_barrier] = now + hold
                barrier_reason[w][read_barrier] = dep_reason

            if flags & _F_FIXED:
                regs = reg_ready[w]
                done = now + fixed_latency
                for r in defined:
                    regs[r] = done

            if hierarchy is None and flags & _F_THROTTLE:
                budget.admit(now + mem_inc, transactions)

            if flags & _F_BAR:
                sync_arrived[w] = False
                sync_released[w] = False

            issued_instructions += 1
            idx[w] = i + 1
            if i + 1 < op_count[w]:
                blocked_until[w] = now + stall_inc
            else:
                # Blocked forever, so the scan needs no ``finished`` test.
                blocked_until[w] = _FAR_FUTURE
                finished[w] = True
                unfinished -= 1
                # A barrier waiting only on this warp is now releasable.
                barrier_dirty = True

        # ------------------------------------------------------------------
        def release_barriers(now: int) -> bool:
            """Release block barriers whose live warps have all arrived."""
            released = False
            for block_id, arrived in list(barrier_arrived.items()):
                if not arrived:
                    continue
                live = [
                    w for w in warps_of_block[block_id] if not finished[w]
                ]
                if live and set(live) <= arrived:
                    for w in warps_of_block[block_id]:
                        if w in arrived:
                            sync_released[w] = True
                            blocked_until[w] = now
                            # Wake the released warp's scheduler: its
                            # skip-ahead horizon may sit past the release.
                            sched_next[w % num_schedulers] = now
                    barrier_arrived[block_id] = set()
                    released = True
            return released

        # ------------------------------------------------------------------
        def record_sample(scheduler: int, now: int, issued_site: int) -> None:
            """One PC sample of ``scheduler``: active if it issued the op at
            ``issued_site`` this cycle, a latency sample if that is -1."""
            nonlocal active_samples, latency_samples
            for next_slot, sampled in rotations[scheduler][sample_pointer[scheduler]]:
                if not finished[sampled]:
                    sample_pointer[scheduler] = next_slot
                    break
            else:
                return

            if issued_site >= 0:
                active_samples += 1
                issue_sites[issued_site] += 1
                site = issued_site
                reason = _R_SELECTED
            else:
                latency_samples += 1
                site = recs_of_warp[sampled][idx[sampled]][16]
                reason = last_reason[sampled]
                if reason == _R_SELECTED:
                    # The warp's last scan issued it, and it is still
                    # inside that op's stall: now < blocked_until (proof in
                    # docs/SIMULATOR.md, "Observation neutrality").
                    reason = _R_EXEC_DEP
                stall_codes[site * _NUM_REASONS + reason] += 1

            if keep_samples:
                function, offset = site_keys[site]
                samples.append(
                    PCSample(
                        cycle=now,
                        sm_id=sm_id,
                        scheduler_id=scheduler,
                        warp_id=sampled,
                        function=function,
                        offset=offset,
                        reason=_REASONS[reason],
                        is_active=issued_site >= 0,
                    )
                )

        # ------------------------------------------------------------------
        # Main loop, event-driven per scheduler.  ``sched_next[s]`` is the
        # earliest cycle scheduler ``s`` could issue.  The horizon is exact
        # for warp-local events (scoreboards, fetch timers, control stalls);
        # a block barrier release resets it in ``release_barriers``.
        # ``due`` holds the schedulers due at ``cycle``, in index order, and
        # ``others_next`` the earliest horizon of the rest.  A scheduler due
        # alone stays due alone while ``cycle < others_next``: either it
        # issued (horizon ``cycle + 1``) or the skip-ahead stopped at its own
        # horizon, and only a barrier release moves another scheduler's
        # horizon.  So both are recomputed only past ``others_next``, after
        # a cycle with several due schedulers, or after a release.
        # The ready test for unflagged ops (the common case) is inlined:
        # one flag word test plus a walk of the op's used registers.  So is
        # the test for an op whose only check flag is the wait mask, and
        # the issue of an op that only writes the scoreboard and is not its
        # warp's last.
        # ------------------------------------------------------------------
        sched_next = [0] * num_schedulers
        due = list(range(num_schedulers))
        several = num_schedulers > 1
        others_next = _FAR_FUTURE
        sample_period = self.sample_period
        max_cycles = self.max_cycles
        #: ``issue()`` ignores the wait-mask and fetch bits: an op whose
        #: other bits are exactly ``_F_FIXED`` only writes the scoreboard.
        issue_bits = _F_BAR | _F_THROTTLE | _F_WRITE_BAR | _F_READ_BAR | _F_FIXED

        while unfinished > 0 and cycle < max_cycles:
            any_issued = False
            # Only the scheduler sampled this cycle needs its issued site.
            if cycle >= next_sample_cycle:
                sampled_scheduler = sample_index % num_schedulers
            else:
                sampled_scheduler = -1
            issued_site = -1

            for scheduler in due:
                chosen_next = -1
                min_next = _FAR_FUTURE
                for next_slot, w in rotations[scheduler][last_issued_slot[scheduler]]:
                    until = blocked_until[w]
                    if cycle < until:
                        if until < min_next:
                            min_next = until
                        continue
                    rec = recs_of_warp[w][idx[w]]
                    check_flags = rec[0] & _CHECK_MASK
                    if not check_flags:
                        # Inline of check(w, cycle) for the unflagged fast path.
                        latest = 0
                        regs = reg_ready[w]
                        for r in rec[2]:
                            t = regs[r]
                            if t > latest:
                                latest = t
                        if cycle < latest:
                            ready = False
                            reason = _R_EXEC_DEP
                            recheck = latest
                        else:
                            ready = True
                            reason = _R_SELECTED
                            recheck = cycle
                    elif check_flags == _F_WAIT:
                        # Inline of check(w, cycle) when the wait mask is the
                        # only check flag: the latest-clearing barrier (the
                        # first of a tie, in mask order), then the scoreboard.
                        latest = -1
                        clears = barrier_clear[w]
                        for bar in rec[1]:
                            t = clears[bar]
                            if t > latest:
                                latest = t
                                latest_bar = bar
                        if cycle < latest:
                            ready = False
                            reason = barrier_reason[w][latest_bar]
                            recheck = latest
                        else:
                            latest = 0
                            regs = reg_ready[w]
                            for r in rec[2]:
                                t = regs[r]
                                if t > latest:
                                    latest = t
                            if cycle < latest:
                                ready = False
                                reason = _R_EXEC_DEP
                                recheck = latest
                            else:
                                ready = True
                                reason = _R_SELECTED
                                recheck = cycle
                    else:
                        reopen = budget.throttle_reopen
                        if (last_reason[w] == _R_THROTTLE and reopen is not None
                                and cycle < reopen):
                            # Still throttled: the checks before the
                            # throttle passed at this op, and they change
                            # only when ``w`` itself issues.
                            ready = False
                            reason = _R_THROTTLE
                            recheck = reopen
                        else:
                            ready, reason, recheck = check(w, cycle)
                    last_reason[w] = reason
                    if ready:
                        chosen_next = next_slot
                        break
                    blocked_until[w] = recheck
                    if recheck < min_next:
                        min_next = recheck
                if chosen_next >= 0:
                    # The scan broke out on the chosen warp ``w`` and its op ``rec``.
                    if scheduler == sampled_scheduler:
                        issued_site = rec[16]
                    i = idx[w]
                    if rec[0] & issue_bits == _F_FIXED and i + 1 < op_count[w]:
                        # Inline of issue(w, cycle) for an op that only
                        # writes the scoreboard.
                        regs = reg_ready[w]
                        done = cycle + rec[6]
                        for r in rec[7]:
                            regs[r] = done
                        issued_instructions += 1
                        idx[w] = i + 1
                        blocked_until[w] = cycle + rec[5]
                    else:
                        issue(w, cycle)
                    last_issued_slot[scheduler] = chosen_next
                    any_issued = True
                    # An issuing scheduler may pick another warp next cycle.
                    sched_next[scheduler] = cycle + 1
                else:
                    sched_next[scheduler] = min_next

            if barrier_dirty:
                barrier_dirty = False
                released = release_barriers(cycle)
            else:
                released = False

            if sampled_scheduler >= 0:
                record_sample(sampled_scheduler, cycle, issued_site)
                sample_index += 1
                next_sample_cycle += sample_period

            if any_issued or released:
                cycle += 1
            else:
                # Nothing can issue until the earliest scheduler horizon:
                # jump ahead, but emit the latency samples in the gap.
                target = min(min(sched_next), max_cycles)
                if target <= cycle:
                    target = cycle + 1
                while next_sample_cycle < target:
                    record_sample(sample_index % num_schedulers, next_sample_cycle, -1)
                    sample_index += 1
                    next_sample_cycle += sample_period
                cycle = target

            if cycle >= others_next or several or released:
                due = []
                others_next = _FAR_FUTURE
                for scheduler, horizon in enumerate(sched_next):
                    if horizon <= cycle:
                        due.append(scheduler)
                    elif horizon < others_next:
                        others_next = horizon
                several = len(due) > 1

        # Counters back to (function, offset) keys and StallReason members,
        # in first-sample order.
        stall_counts: Dict[Tuple[str, int], Dict[StallReason, int]] = {}
        for key, count in stall_codes.items():
            site, code = divmod(key, _NUM_REASONS)
            stall_counts.setdefault(site_keys[site], {})[_REASONS[code]] = count
        return SimulationResult(
            kernel=kernel,
            wave_cycles=cycle,
            stall_counts=stall_counts,
            issue_counts={site_keys[site]: count for site, count in issue_sites.items()},
            active_samples=active_samples,
            latency_samples=latency_samples,
            issued_instructions=issued_instructions,
            samples=samples,
            memory=hierarchy.statistics if hierarchy is not None else None,
        )
