"""The production SM simulator core.

:class:`VectorSMSimulator` is the core every production path runs (the
profiler's single-wave scope and every SM of the whole-GPU engine).  It is a
bit-identical re-implementation of the reference
:class:`~repro.sampling.simulator.SMSimulator` that keeps *no per-op
objects* on its hot path.  At the start of a ``simulate()`` call every
warp's trace is packed once into a structure of flat arrays:

* **Op streams** — one packed record per dynamic op, carrying the
  precomputed facts both scheduler phases need: a check-phase flag word
  (fetch-stall / wait-mask / BAR / throttled-memory bits), the wait mask as
  a plain tuple, used/defined register indices, the control-code barrier
  slots, precomputed fixed-op latency (``architecture.latency`` never runs
  inside the loop), precomputed ``max(1, ...)`` latency/stall increments,
  and — under the hierarchy memory model — the access's coalesced sector
  addresses, resolved at pack time by shifting the memoized phase pattern
  (:func:`~repro.sampling.memory.sector_pattern`).  Records are interned
  aggressively: the static prefix is memoized per instruction, ops with no
  dynamic state (the common fixed-latency ALU op) share one record tuple
  outright, and the trace walk's shared ops find that record by identity —
  so such an op costs one dict hit.
* **Warp state** — PC indices, ready/blocked cycles, fetch timers, barrier
  membership and finished flags live in flat per-warp arrays; the
  fixed-latency scoreboard is a dense ``warps x registers`` table of
  ready-cycles instead of per-warp dicts.

The event loop itself is a transliteration of the object core — same
scheduler scan order, same skip-ahead horizons, same observation-neutral
sampling probe — so the two cores stay *bit-identical* on every output
(``wave_cycles``, stall/issue counts, samples, memory statistics).  The
speed comes from the packing: one tuple index replaces every chain of
attribute dispatches, the scheduler scan tests one flag word and walks the
register scoreboard inline on the common path, and all per-op
``max()``/latency/coalescing work is hoisted out of the loop.  Packing and
stepping are pure Python: per-SM warp populations (8–64) sit far below any
array library's vectorization break-even for this access pattern.

``docs/SIMULATOR.md`` documents the record layout and how to extend both
cores together.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.machine import GpuArchitecture
from repro.sampling.memory import MemoryHierarchy, check_memory_model, sector_pattern
from repro.sampling.sample import PCSample
from repro.sampling.simulator import DEFAULT_MAX_CYCLES, SimulationResult
from repro.sampling.stall_reasons import StallReason
from repro.sampling.trace import TraceOp, cached_latency, instruction_meta

_FAR_FUTURE = 1 << 60

# ----------------------------------------------------------------------
# Packed-record layout (one tuple per dynamic op).
#
# Check-phase flag bits — ops with none of these (the common ALU op) take
# a single ``flags & _CHECK_MASK`` branch through the scheduler's ready
# test instead of four attribute probes.
_F_FETCH = 1
_F_WAIT = 2
_F_BAR = 4
_F_THROTTLE = 8
_CHECK_MASK = _F_FETCH | _F_WAIT | _F_BAR | _F_THROTTLE
# Issue-phase flag bits.
_F_WRITE_BAR = 16
_F_READ_BAR = 32
_F_FIXED = 64  # fixed-latency op: write the dense scoreboard

# Record tuple positions (static prefix 0-9 is memoized per instruction,
# dynamic tail 10-15 varies per op):
#   0 flags          1 wait_mask     2 used_regs     3 write_barrier
#   4 read_barrier   5 stall_inc     6 fixed_latency 7 defined_regs
#   8 barrier_reason 9 offset       10 fetch_stall  11 mem_inc
#  12 read_hold     13 transactions 14 function     15 sectors


# ----------------------------------------------------------------------
def _pack_warp(
    trace: Sequence[TraceOp],
    architecture: GpuArchitecture,
    hierarchy: bool,
    sector_bytes: int,
    warp_size: int,
    static_memo: dict,
    shared_memo: dict,
) -> list:
    """One warp's packed op records.

    ``static_memo`` interns, per instruction: the record's static prefix,
    a complete default record (shared outright by ops with no dynamic
    state — the common case), and the instruction's highest register
    index.  ``shared_memo`` maps ``id(op)`` of every op that packed to a
    default record to that record: the trace walk appends one shared,
    never-mutated :class:`TraceOp` per static instruction for such ops, so
    each costs one dict hit.  Both memos are per-``simulate()`` dicts keyed
    by object identity — the traces pin the ops and their instructions for
    the duration of the call, so ids cannot be recycled underneath them.
    Sector addresses shift the process-wide phase pattern of
    :func:`~repro.sampling.memory.sector_pattern`.
    """
    records = []
    append = records.append
    shared_record = shared_memo.get
    for op in trace:
        record = shared_record(id(op))
        if record is not None:
            append(record)
            continue
        instruction = op.instruction
        entry = static_memo.get(id(instruction))
        if entry is None:
            meta = instruction_meta(instruction)
            flags = 0
            if meta.wait_mask:
                flags |= _F_WAIT
            if meta.is_bar:
                flags |= _F_BAR
            if meta.is_throttled_memory:
                flags |= _F_THROTTLE
            if meta.write_barrier is not None:
                flags |= _F_WRITE_BAR
            if meta.read_barrier is not None:
                flags |= _F_READ_BAR
            fixed_latency = 0
            if not meta.is_variable_latency:
                flags |= _F_FIXED
                fixed_latency = cached_latency(architecture, meta.opcode)
            top = -1
            if meta.used_regs:
                top = max(meta.used_regs)
            if meta.defined_regs:
                top = max(top, max(meta.defined_regs))
            static = (
                flags,
                meta.wait_mask,
                meta.used_regs,
                meta.write_barrier,
                meta.read_barrier,
                max(1, meta.stall_cycles),
                fixed_latency,
                meta.defined_regs,
                meta.barrier_reason,
                meta.offset,
            )
            # Default record for ops with no dynamic state: latency 0
            # (mem_inc 1, read_hold 20), no transactions, no fetch stall.
            default_rec = static + (0, 1, 20, 1, op.function, None)
            entry = (static, default_rec, top)
            static_memo[id(instruction)] = entry
        static, default_rec, _ = entry

        latency = op.latency
        transactions = op.transactions
        fetch = op.fetch_stall
        flags = static[0]
        needs_sectors = hierarchy and flags & _F_THROTTLE
        if not (latency or transactions or fetch or needs_sectors):
            shared_memo[id(op)] = default_rec
            append(default_rec)
            continue

        sectors = None
        if needs_sectors and op.stride_bytes > 0:
            address = op.address
            phase = address % sector_bytes
            pattern = sector_pattern(phase, op.stride_bytes, warp_size, sector_bytes)
            shift = address - phase
            sectors = tuple([shift + sector for sector in pattern])
        if fetch:
            static = (flags | _F_FETCH,) + static[1:]
        append(static + (
            fetch,
            latency if latency >= 1 else 1,
            (latency if latency < 30 else 30) if latency >= 1 else 20,
            transactions if transactions >= 1 else 1,
            op.function,
            sectors,
        ))
    return records


class VectorSMSimulator:
    """Packed-array SM simulator core, bit-identical to the reference
    :class:`~repro.sampling.simulator.SMSimulator`."""

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
        traces: Sequence[List[TraceOp]],
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
            hierarchy = MemoryHierarchy(arch.memory, warp_size=arch.warp_size)
        sector_bytes = arch.memory.sector_bytes

        # ---- pack phase: per-op records + register-file sizing ----------
        static_memo: dict = {}
        shared_memo: dict = {}
        recs_of_warp: List[list] = [
            _pack_warp(
                trace, arch, hierarchy is not None, sector_bytes,
                arch.warp_size, static_memo, shared_memo,
            )
            for trace in traces
        ]
        # Every packed op's instruction is in static_memo with its highest
        # register index.
        num_regs = 1 + max((top for _, _, top in static_memo.values()), default=-1)

        # ---- flat warp-state arrays ------------------------------------
        op_count = [len(records) for records in recs_of_warp]
        idx = [0] * num_warps
        ready_cycle = [0] * num_warps
        blocked_until = [0] * num_warps
        finished = [count == 0 for count in op_count]
        fetch_ready: List[Optional[int]] = [None] * num_warps
        fetch_done_idx = [-1] * num_warps
        sync_arrived = [False] * num_warps
        sync_released = [False] * num_warps
        last_reason = [StallReason.OTHER] * num_warps
        barrier_clear = [[0, 0, 0, 0, 0, 0] for _ in range(num_warps)]
        barrier_reason = [
            [StallReason.EXECUTION_DEPENDENCY] * 6 for _ in range(num_warps)
        ]
        #: Dense scoreboard: reg_ready[w][r] = cycle register r is ready.
        reg_ready = [[0] * num_regs for _ in range(num_warps)]

        scheduler_warps: List[List[int]] = [[] for _ in range(num_schedulers)]
        for w in range(num_warps):
            scheduler_warps[w % num_schedulers].append(w)
        warps_of_block: Dict[int, List[int]] = defaultdict(list)
        for w in range(num_warps):
            warps_of_block[block_of_warp[w]].append(w)
        barrier_arrived: Dict[int, set] = defaultdict(set)

        pending_memory: List[int] = []
        memory_limit = arch.max_outstanding_memory_requests

        stall_counts: Dict[Tuple[str, int], Dict[StallReason, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        issue_counts: Dict[Tuple[str, int], int] = defaultdict(int)
        samples: List[PCSample] = []
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

        EXEC_DEP = StallReason.EXECUTION_DEPENDENCY
        SELECTED = StallReason.SELECTED
        IDLE = StallReason.IDLE

        # ------------------------------------------------------------------
        def check(w: int, now: int, commit: bool = True) -> Tuple[bool, StallReason, int]:
            """Whether warp ``w`` can issue at ``now``; else (reason, recheck).

            Mirrors the object core's single check routine, including the
            observation-neutral ``commit=False`` probe the PC sampler uses.
            The scheduler scan inlines the common path (no flags, register
            scoreboard only) and only calls in here for flagged ops and
            sampling probes.
            """
            nonlocal barrier_dirty
            if finished[w]:
                return False, IDLE, _FAR_FUTURE
            if now < ready_cycle[w]:
                return False, EXEC_DEP, ready_cycle[w]
            i = idx[w]
            rec = recs_of_warp[w][i]
            flags = rec[0]

            if flags & _CHECK_MASK:
                # Instruction fetch stall charged to this op.
                if flags & _F_FETCH and fetch_done_idx[w] != i:
                    ready_at = fetch_ready[w]
                    if ready_at is None:
                        ready_at = now + rec[10]
                        if commit:
                            fetch_ready[w] = ready_at
                    if now < ready_at:
                        return False, StallReason.INSTRUCTION_FETCH, ready_at
                    if commit:
                        fetch_done_idx[w] = i
                        fetch_ready[w] = None

                # Barrier wait mask (variable-latency dependencies).
                if flags & _F_WAIT:
                    latest = -1
                    latest_reason = EXEC_DEP
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
                return False, EXEC_DEP, latest

            if flags & _CHECK_MASK:
                # Block-wide synchronization.
                if flags & _F_BAR:
                    if not sync_released[w]:
                        if commit and not sync_arrived[w]:
                            sync_arrived[w] = True
                            barrier_arrived[block_of_warp[w]].add(w)
                            barrier_dirty = True
                        return False, StallReason.SYNCHRONIZATION, _FAR_FUTURE

                # Memory throttle.
                if flags & _F_THROTTLE:
                    if hierarchy is not None:
                        recheck = hierarchy.backpressure(now, commit=commit)
                        if recheck is not None:
                            return False, StallReason.MEMORY_THROTTLE, recheck
                    elif commit:
                        while pending_memory and pending_memory[0] <= now:
                            heapq.heappop(pending_memory)
                        if len(pending_memory) >= memory_limit:
                            return False, StallReason.MEMORY_THROTTLE, pending_memory[0]
                    else:
                        in_flight = sum(
                            1 for completion in pending_memory if completion > now
                        )
                        if in_flight >= memory_limit:
                            return False, StallReason.MEMORY_THROTTLE, now + 1

            return True, SELECTED, now

        # ------------------------------------------------------------------
        def issue(w: int, now: int) -> None:
            nonlocal unfinished, issued_instructions, barrier_dirty
            i = idx[w]
            (flags, _wait, _used, write_barrier, read_barrier, stall_inc,
             fixed_latency, defined, dep_reason, _offset, _fetch, mem_inc,
             read_hold, transactions, _function, sectors
             ) = recs_of_warp[w][i]

            is_hierarchy_memory = hierarchy is not None and flags & _F_THROTTLE
            if is_hierarchy_memory:
                if sectors is None:
                    sectors = hierarchy.fallback_sectors(transactions)
                memory_completion = hierarchy.access_sectors(sectors, now)

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
                completion = now + mem_inc
                for _ in range(transactions):
                    heapq.heappush(pending_memory, completion)

            if flags & _F_BAR:
                sync_arrived[w] = False
                sync_released[w] = False

            issued_instructions += 1
            idx[w] = i + 1
            ready_cycle[w] = now + stall_inc
            blocked_until[w] = ready_cycle[w]
            if i + 1 >= op_count[w]:
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
        def record_sample(
            scheduler: int, now: int, issued_key: Optional[Tuple[str, int]]
        ) -> None:
            nonlocal active_samples, latency_samples
            indices = scheduler_warps[scheduler]
            if not indices:
                return
            pointer = sample_pointer[scheduler]
            sampled = -1
            for probe in range(len(indices)):
                candidate = indices[(pointer + probe) % len(indices)]
                if not finished[candidate]:
                    sampled = candidate
                    sample_pointer[scheduler] = (pointer + probe + 1) % len(indices)
                    break
            if sampled < 0:
                return

            is_active = issued_key is not None
            if is_active:
                active_samples += 1
                issue_counts[issued_key] += 1
                reason = SELECTED
                function, offset = issued_key
            else:
                latency_samples += 1
                rec = recs_of_warp[sampled][idx[sampled]]
                reason = last_reason[sampled]
                if reason in (SELECTED, IDLE, StallReason.OTHER):
                    # Stale cached reason: probe in observation mode so
                    # sampling never perturbs execution.
                    _ready, reason, _recheck = check(sampled, now, commit=False)
                    if reason in (SELECTED, IDLE):
                        reason = StallReason.NOT_SELECTED
                function, offset = rec[14], rec[9]
                stall_counts[(function, offset)][reason] += 1

            if self.keep_samples:
                samples.append(
                    PCSample(
                        cycle=now,
                        sm_id=sm_id,
                        scheduler_id=scheduler,
                        warp_id=sampled,
                        function=function,
                        offset=offset,
                        reason=reason,
                        is_active=is_active,
                    )
                )

        # ------------------------------------------------------------------
        # Main loop — the object core's event-driven scan over flat arrays.
        # The ready test for unflagged ops (the common case) is inlined:
        # one flag word test plus a walk of the op's used registers.
        # ------------------------------------------------------------------
        sched_next = [0] * num_schedulers
        issued_key_by_scheduler: List[Optional[Tuple[str, int]]] = [None] * num_schedulers
        sample_period = self.sample_period
        max_cycles = self.max_cycles

        while unfinished > 0 and cycle < max_cycles:
            any_issued = False

            for scheduler in range(num_schedulers):
                issued_key_by_scheduler[scheduler] = None
                if cycle < sched_next[scheduler]:
                    continue
                indices = scheduler_warps[scheduler]
                if not indices:
                    sched_next[scheduler] = _FAR_FUTURE
                    continue
                count = len(indices)
                start = last_issued_slot[scheduler]
                chosen_slot = -1
                min_next = _FAR_FUTURE
                for probe in range(count):
                    slot = (start + probe) % count
                    w = indices[slot]
                    if finished[w]:
                        continue
                    until = blocked_until[w]
                    if cycle < until:
                        if until < min_next:
                            min_next = until
                        continue
                    # Inline of check(w, cycle) for the unflagged fast path.
                    if cycle < ready_cycle[w]:
                        ready = False
                        reason = EXEC_DEP
                        recheck = ready_cycle[w]
                    else:
                        rec = recs_of_warp[w][idx[w]]
                        if rec[0] & _CHECK_MASK:
                            ready, reason, recheck = check(w, cycle)
                        else:
                            latest = 0
                            regs = reg_ready[w]
                            for r in rec[2]:
                                t = regs[r]
                                if t > latest:
                                    latest = t
                            if cycle < latest:
                                ready = False
                                reason = EXEC_DEP
                                recheck = latest
                            else:
                                ready = True
                                reason = SELECTED
                                recheck = cycle
                    last_reason[w] = reason
                    if ready:
                        chosen_slot = slot
                        break
                    blocked_until[w] = recheck
                    if recheck < min_next:
                        min_next = recheck
                if chosen_slot >= 0:
                    w = indices[chosen_slot]
                    rec = recs_of_warp[w][idx[w]]
                    issued_key_by_scheduler[scheduler] = (rec[14], rec[9])
                    issue(w, cycle)
                    last_issued_slot[scheduler] = (chosen_slot + 1) % count
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

            if cycle >= next_sample_cycle:
                scheduler = sample_index % num_schedulers
                record_sample(scheduler, cycle, issued_key_by_scheduler[scheduler])
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
                    scheduler = sample_index % num_schedulers
                    record_sample(scheduler, next_sample_cycle, None)
                    sample_index += 1
                    next_sample_cycle += sample_period
                cycle = target

        return SimulationResult(
            kernel=kernel,
            wave_cycles=cycle,
            stall_counts={key: dict(value) for key, value in stall_counts.items()},
            issue_counts=dict(issue_counts),
            active_samples=active_samples,
            latency_samples=latency_samples,
            issued_instructions=issued_instructions,
            samples=samples,
            memory=hierarchy.statistics if hierarchy is not None else None,
        )
