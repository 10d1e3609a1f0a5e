"""The per-SM memory-hierarchy model behind ``memory_model="hierarchy"``.

The flat memory model services every global access with its per-opcode
latency and a single outstanding-transaction budget — MEMORY_DEPENDENCY and
MEMORY_THROTTLE samples carry no locality or coalescing signal.  This module
models the path a warp's memory request actually takes, the way detailed GPU
pipeline simulators structure their memory stages:

1. **Coalescing** — the 32 per-thread addresses of a warp access are merged
   into unique 32-byte *sector* transactions.  A unit-stride float access
   touches 4 sectors (one 128-byte cache line); a 128-byte stride touches 32.
2. **L1** — a per-SM set-associative sector cache with LRU replacement.
   Hits complete at the L1 hit latency; misses allocate a miss-status
   holding register (MSHR) and fall through to L2.  When every MSHR is in
   flight the memory pipeline stalls the issuing warp with MEMORY_THROTTLE —
   backpressure from real resource exhaustion, not a global counter.
3. **L2 slice** — this SM's slice of the shared L2 (capacity = total L2 /
   SM count), also a set-associative sector cache.
4. **DRAM** — misses pay the DRAM latency *and* serialize on a per-cycle
   byte bandwidth, so saturating workloads see queueing delay grow with the
   transaction rate.

The model is deterministic (no randomness; state depends only on the access
sequence) and observation-neutral: the PC sampler never calls into it, and
:meth:`MemoryHierarchy.access_sectors` is only invoked when an instruction
actually issues — so PC sampling can never perturb the simulated timing,
the same property the rest of the simulator guarantees.  When a memory op
issues, the simulator hands :meth:`~MemoryHierarchy.access_sectors` the
memoized :func:`sector_pattern` of its address's phase and the shift to
add to it, so no per-access sector list is built.  The access walks those
sectors once, with the L1 and L2 LRU lookups inline: one call per
warp-level request, no call per sector.

Both models throttle through one contract, :class:`TransactionBudget`: the
flat model's budget is one, and the hierarchy extends it with its L1 MSHRs
as the transactions in flight.

:class:`MemoryStatistics` is the aggregate the profiler surfaces through
:class:`~repro.sampling.sample.LaunchStatistics`: warp-level requests,
sector transactions, per-level hit rates and DRAM traffic — the signal the
Memory Coalescing optimizer consumes.  :attr:`MemoryHierarchy.statistics`
derives it from the two caches' hit and miss counters and the hierarchy's
request count, the only counters an access updates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

from repro.arch.machine import MemoryHierarchyParameters
from repro.isa.registers import MemorySpace

#: The two memory models: "flat" (per-opcode latency + global transaction
#: budget, the historical behaviour) and "hierarchy" (this module).
MEMORY_MODELS = ("flat", "hierarchy")

#: Memory spaces serviced by the hierarchy (and throttled by the flat
#: model's outstanding-transaction budget).
THROTTLED_SPACES = (
    MemorySpace.GLOBAL, MemorySpace.GENERIC, MemorySpace.LOCAL, MemorySpace.TEXTURE,
)

#: Bytes accessed per thread per memory instruction (a 32-bit word; wider
#: vector loads are modelled as larger strides by the workload).
ACCESS_BYTES = 4


def check_memory_model(model: str) -> str:
    """``model`` if valid, else a uniform ``ValueError``."""
    if model not in MEMORY_MODELS:
        raise ValueError(
            f"unknown memory model {model!r}; expected one of {MEMORY_MODELS}"
        )
    return model


def coalesce(address: int, stride: int, warp_size: int, sector_bytes: int) -> List[int]:
    """The unique sectors touched by one warp access with ``stride > 0``.

    Thread ``t`` accesses :data:`ACCESS_BYTES` bytes at ``address + t *
    stride``.  The first and last sector of each thread's footprint are
    nondecreasing in ``t``, so skipping sectors already emitted yields them
    in first-seen order, which is also sorted order.  The L1 pipeline
    positions and DRAM queueing order depend on that order.
    """
    sectors: List[int] = []
    next_index = address // sector_bytes
    for start in range(address, address + warp_size * stride, stride):
        last = (start + ACCESS_BYTES - 1) // sector_bytes
        first = max(start // sector_bytes, next_index)
        sectors.extend(range(first * sector_bytes, (last + 1) * sector_bytes, sector_bytes))
        next_index = last + 1
    return sectors


@functools.lru_cache(maxsize=4096)
def sector_pattern(
    phase: int, stride: int, warp_size: int, sector_bytes: int
) -> Tuple[int, ...]:
    """:func:`coalesce` at ``phase = address % sector_bytes``.

    Coalescing is shift-invariant: ``coalesce(a, ...)`` equals this pattern
    with ``a - a % sector_bytes`` added to every sector.  The phase and the
    stride take few values, so the pattern is shared by almost every
    access.
    """
    return tuple(coalesce(phase, stride, warp_size, sector_bytes))


@dataclass
class MemoryStatistics:
    """Aggregate memory-hierarchy counters of one simulation.

    All counters are sector-granular except ``requests`` (warp-level memory
    instructions).  ``l2_*`` and ``dram_*`` only count traffic that missed
    the level above, so ``l1_hits + l1_misses == sectors`` and
    ``l2_hits + l2_misses == l1_misses``.

    Scope caveat: like the profile's stall/issue sample counts, the
    absolute counters cover what was *simulated* — one representative wave
    on one SM under ``simulation_scope="single_wave"`` (whose
    ``kernel_cycles`` is an extrapolation), every SM of every wave under
    ``"whole_gpu"``.  Derived *rates* (:attr:`l1_hit_rate`,
    :attr:`l2_hit_rate`, :attr:`transactions_per_request`) are comparable
    across scopes; to estimate whole-kernel byte totals from a single-wave
    profile, scale by ``statistics.waves``.
    """

    #: Warp-level memory requests serviced by the hierarchy.
    requests: int = 0
    #: 32-byte sector transactions after coalescing.
    sectors: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    #: Bytes moved over the DRAM channel (sector size is per-architecture,
    #: so the byte count is recorded rather than derived).
    dram_bytes: int = 0

    # ------------------------------------------------------------------
    @property
    def dram_sectors(self) -> int:
        """Sectors serviced by DRAM: exactly the sectors that missed L2."""
        return self.l2_misses

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def transactions_per_request(self) -> float:
        """Average sectors per warp-level request (the coalescing figure)."""
        return self.sectors / self.requests if self.requests else 0.0

    # ------------------------------------------------------------------
    def merge(self, other: "MemoryStatistics") -> None:
        """Accumulate another simulation's counters (multi-SM merges)."""
        self.requests += other.requests
        self.sectors += other.sectors
        self.l1_hits += other.l1_hits
        self.l1_misses += other.l1_misses
        self.l2_hits += other.l2_hits
        self.l2_misses += other.l2_misses
        self.dram_bytes += other.dram_bytes

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "sectors": self.sectors,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "dram_bytes": self.dram_bytes,
            # Derived counters/rates are included for human consumers
            # (reports, CI smoke checks) and ignored by from_dict.
            "dram_sectors": self.dram_sectors,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hit_rate": self.l2_hit_rate,
            "transactions_per_request": self.transactions_per_request,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MemoryStatistics":
        return cls(
            requests=payload.get("requests", 0),
            sectors=payload.get("sectors", 0),
            l1_hits=payload.get("l1_hits", 0),
            l1_misses=payload.get("l1_misses", 0),
            l2_hits=payload.get("l2_hits", 0),
            l2_misses=payload.get("l2_misses", 0),
            dram_bytes=payload.get("dram_bytes", 0),
        )


class SectorCache:
    """The geometry, tag sets and hit/miss counters of one set-associative
    cache of 32-byte sectors with LRU replacement.

    Tags are sector addresses; there is no data (the simulator only needs
    hit/miss timing).  Misses allocate immediately (allocate-on-miss), which
    models the MSHR merging a second access to an in-flight sector.  The
    lookup itself lives inline in :meth:`MemoryHierarchy.access_sectors`,
    the one place that walks an access's sectors.
    """

    def __init__(self, capacity_bytes: int, ways: int, sector_bytes: int):
        if capacity_bytes < ways * sector_bytes:
            raise ValueError("cache capacity must hold at least one full set")
        self.sector_bytes = sector_bytes
        self.ways = ways
        self.num_sets = max(1, capacity_bytes // (ways * sector_bytes))
        #: ``sets[(sector // sector_bytes) % num_sets]`` holds that set's
        #: sector tags in LRU order (last = most recent).
        self.sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0


class TransactionBudget:
    """A cap on the memory transactions one SM keeps in flight.

    The flat memory model throttles on one of these with
    ``max_outstanding_memory_requests`` transactions;
    :class:`MemoryHierarchy` extends it with its L1 MSHRs as the
    transactions and ``l1_mshr_entries`` as the limit.
    """

    def __init__(self, limit: int):
        self.limit = limit
        #: Completion cycles of the transactions in flight (a heap).
        self._in_flight: List[int] = []
        #: The cycle the last refusal of :meth:`backpressure` returned: when
        #: the transactions in flight then drop below :attr:`limit`.
        #: ``None`` until a refusal computes it; every admission drops it.
        self.throttle_reopen: Optional[int] = None

    # ------------------------------------------------------------------
    def backpressure(self, now: int) -> Optional[int]:
        """The cycle to recheck at if the pipeline cannot accept a request.

        Returns ``None`` when a request can issue.  A refusal returns the
        exact cycle the pipeline reopens: the one at which the transactions
        already in flight drop below :attr:`limit`, i.e. the
        (in_flight - limit + 1)-th earliest completion.  No request can
        issue earlier, because only an issued request adds transactions.
        The cycle is memoized as :attr:`throttle_reopen` until the next
        admission; retiring the earliest completions never moves it, and a
        memo that missed a drop is early, never late, so it costs a futile
        recheck but never changes a result.  Completed transactions retire
        first.
        """
        in_flight = self._in_flight
        while in_flight and in_flight[0] <= now:
            heappop(in_flight)
        excess = len(in_flight) - self.limit
        if excess < 0:
            return None
        if self.throttle_reopen is None:
            self.throttle_reopen = sorted(in_flight)[excess]
        return self.throttle_reopen

    # ------------------------------------------------------------------
    def admit(self, completion: int, transactions: int) -> None:
        """Put ``transactions`` transactions completing at ``completion``
        in flight (the flat model's issue of a throttled access)."""
        for _ in range(transactions):
            heappush(self._in_flight, completion)
        self.throttle_reopen = None


class MemoryHierarchy(TransactionBudget):
    """One SM's view of the memory system: L1, an L2 slice, and DRAM.

    Its transactions in flight are the L1 sector misses (the MSHRs), so
    :meth:`backpressure` refuses a request while ``l1_mshr_entries`` misses
    are outstanding.
    """

    def __init__(self, parameters: MemoryHierarchyParameters):
        super().__init__(parameters.l1_mshr_entries)
        self.parameters = parameters
        self.l1 = SectorCache(
            parameters.l1_bytes, parameters.l1_ways, parameters.sector_bytes
        )
        self.l2 = SectorCache(
            parameters.l2_slice_bytes, parameters.l2_ways, parameters.sector_bytes
        )
        #: Warp-level requests serviced; the sector counters are the caches'.
        self.requests = 0
        #: Cycle until which the DRAM channel is busy transferring.
        self._dram_busy_until = 0
        #: Rolling cursor for accesses without address information.
        self._fallback_cursor = 0
        # The fixed geometry and timing access_sectors reads, unpacked in
        # one step per access.  DRAM serializes transfers on the per-SM
        # bandwidth share, one sector every ``transfer`` cycles.
        transfer = max(1, parameters.sector_bytes // parameters.dram_bytes_per_cycle)
        self._geometry = (
            parameters.sector_bytes, parameters.l1_sectors_per_cycle,
            self.l1.sets, self.l1.num_sets, self.l1.ways, parameters.l1_hit_latency,
            self.l2.sets, self.l2.num_sets, self.l2.ways, parameters.l2_hit_latency,
            transfer, parameters.dram_latency,
        )

    # ------------------------------------------------------------------
    @property
    def statistics(self) -> MemoryStatistics:
        """The counters so far, derived from the caches'.

        Every sector looks up L1, every L1 miss looks up L2, and every L2
        miss moves one sector over DRAM.  Each read builds a fresh
        snapshot.
        """
        l1, l2 = self.l1, self.l2
        return MemoryStatistics(
            requests=self.requests,
            sectors=l1.hits + l1.misses,
            l1_hits=l1.hits,
            l1_misses=l1.misses,
            l2_hits=l2.hits,
            l2_misses=l2.misses,
            dram_bytes=l2.misses * self.parameters.sector_bytes,
        )

    # ------------------------------------------------------------------
    def fallback_sectors(self, transactions: int) -> List[int]:
        """Sectors of an access without address information.

        A record with stride 0 (one built by hand, not by the trace walk)
        carries no address; its access falls back to ``transactions``
        consecutive sectors at a rolling cursor, so the
        transaction *count* still matches the flat model.  The cursor is
        hierarchy state: callers must consume fallback sectors in issue
        order (the simulator does — sectors are resolved when the op
        issues).
        """
        sector = self.parameters.sector_bytes
        count = max(1, transactions or 1)
        base = self._fallback_cursor
        self._fallback_cursor += count * sector
        return [base + i * sector for i in range(count)]

    # ------------------------------------------------------------------
    def access_sectors(self, sectors: Sequence[int], now: int, shift: int = 0) -> int:
        """Service one warp-level access to ``sectors``, each plus ``shift``.

        The simulator passes an access's memoized :func:`sector_pattern`
        and the shift of its address, so no per-access list is built.
        Sectors issue into the L1 pipeline at ``l1_sectors_per_cycle``; each
        is serviced by the first level that holds it; the request completes
        when its slowest sector does.  Both LRU lookups run inline, in one
        pass: a hit moves its tag to the most-recent end of its set, a miss
        appends it and evicts the set's least-recent tag when the set
        overflows.
        """
        (sector_bytes, per_cycle,
         l1_sets, l1_num_sets, l1_ways, l1_latency,
         l2_sets, l2_num_sets, l2_ways, l2_latency,
         transfer, dram_latency) = self._geometry
        self.requests += 1
        completion = now + 1
        last_hit = -1
        l1_misses = l2_misses = 0
        in_flight = self._in_flight
        busy = self._dram_busy_until
        for position, sector in enumerate(sectors):
            sector += shift
            number = sector // sector_bytes
            entries = l1_sets[number % l1_num_sets]
            if sector in entries:
                if entries[-1] != sector:
                    entries.remove(sector)
                    entries.append(sector)
                # Hits complete in pipeline order: only the last one can
                # set the completion.
                last_hit = position
                continue
            entries.append(sector)
            if len(entries) > l1_ways:
                del entries[0]
            l1_misses += 1
            issued = now + position // per_cycle
            entries = l2_sets[number % l2_num_sets]
            if sector in entries:
                if entries[-1] != sector:
                    entries.remove(sector)
                    entries.append(sector)
                done = issued + l2_latency
            else:
                entries.append(sector)
                if len(entries) > l2_ways:
                    del entries[0]
                l2_misses += 1
                # Queueing delay grows when requests outpace the channel.
                if busy < issued:
                    busy = issued
                busy += transfer
                done = busy + dram_latency
            heappush(in_flight, done)
            if done > completion:
                completion = done
        if last_hit >= 0:
            done = now + last_hit // per_cycle + l1_latency
            if done > completion:
                completion = done
        l1 = self.l1
        l1.hits += len(sectors) - l1_misses
        if l1_misses:
            l1.misses += l1_misses
            l2 = self.l2
            l2.hits += l1_misses - l2_misses
            l2.misses += l2_misses
            self._dram_busy_until = busy
            self.throttle_reopen = None
        return completion
