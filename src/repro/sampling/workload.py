"""Workload specifications.

The reproduction has no functional GPU interpreter: instead of executing
values, each synthetic kernel is paired with a :class:`WorkloadSpec` that
describes the *dynamic behaviour* needed to walk a realistic execution trace
out of the control flow graph:

* loop trip counts (per loop header line, optionally varying per warp to
  model imbalanced workloads such as the bfs benchmark in Section 6.2),
* taken probabilities for data-dependent forward branches,
* call targets of ``CAL`` instructions (our ISA does not encode callees),
* memory behaviour: global-memory latency scaling, lines whose accesses are
  uncoalesced (more transactions per access, higher latency), and constant
  memory hit behaviour,
* a deterministic seed so traces — and therefore profiles — are reproducible.

A spec is frozen: its mapping fields are read-only copies and
``uncoalesced_lines`` is a ``frozenset``, so one spec can be shared by every
run of a setup.  Derive a variant with :meth:`WorkloadSpec.copy` or
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import FrozenSet, Mapping, Optional, Tuple, Union

#: A trip count is a plain integer, or a tuple of integers that gives warp
#: ``w`` the count ``counts[w % len(counts)]``.
TripCount = Union[int, Tuple[int, ...]]

#: The fields :meth:`WorkloadSpec.__post_init__` stores as read-only copies.
_MAPPING_FIELDS = ("loop_trip_counts", "branch_taken", "call_targets", "access_strides")


@dataclass(frozen=True)
class WorkloadSpec:
    """Dynamic behaviour of one kernel for trace generation."""

    name: str = "default"
    #: Trip count of each loop, keyed by the loop header's source line.
    loop_trip_counts: Mapping[int, TripCount] = field(default_factory=dict)
    #: Trip count used for loops without an explicit entry.
    default_trip_count: int = 4
    #: Probability that a data-dependent forward branch is taken, keyed by
    #: the branch instruction's source line.
    branch_taken: Mapping[int, float] = field(default_factory=dict)
    #: Default taken probability for unlisted forward branches.
    default_branch_taken: float = 0.5
    #: Callee function name for each ``CAL`` site, keyed by source line.
    call_targets: Mapping[int, str] = field(default_factory=dict)
    #: Source lines whose global-memory accesses are uncoalesced.
    uncoalesced_lines: FrozenSet[int] = frozenset()
    #: Memory transactions per access for uncoalesced lines.
    uncoalesced_transactions: int = 8
    #: Total bytes the kernel's global accesses cycle through.  Working sets
    #: smaller than the L1/L2 become cache-resident under the hierarchy
    #: memory model; larger ones stream through DRAM.
    working_set_bytes: int = 32 * 1024 * 1024
    #: Per-thread access stride in bytes, keyed by the access's source line
    #: (4 = unit-stride floats, fully coalesced; 32+ = one sector per
    #: thread, fully uncoalesced).
    access_strides: Mapping[int, int] = field(default_factory=dict)
    #: Stride used for global accesses without an explicit entry.
    default_access_stride_bytes: int = 4
    #: Multiplier applied to global/local memory latencies.
    memory_latency_scale: float = 1.0
    #: Multiplier applied to constant memory latency (values > 1 model
    #: constant-cache misses from divergent indices).
    constant_latency_scale: float = 1.0
    #: Extra latency scale for shared memory (bank conflicts).
    shared_latency_scale: float = 1.0
    #: Deterministic seed for per-warp randomness.
    seed: int = 2021
    #: Hard cap on the dynamic trace length per warp (protects against
    #: accidentally unbounded loops in workload definitions).
    max_trace_ops: int = 20000

    def __post_init__(self) -> None:
        # Copies, so the caller's dicts and sets cannot change a spec that
        # setups share.
        for name in _MAPPING_FIELDS:
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "uncoalesced_lines", frozenset(self.uncoalesced_lines))

    # ------------------------------------------------------------------
    # Queries used by the trace generator
    # ------------------------------------------------------------------
    def trip_count(self, header_line: Optional[int], warp_id: int) -> int:
        """Trip count, for warp ``warp_id``, of the loop whose header maps to
        ``header_line``."""
        value: TripCount = self.default_trip_count
        if header_line is not None and header_line in self.loop_trip_counts:
            value = self.loop_trip_counts[header_line]
        if isinstance(value, tuple):
            value = value[warp_id % len(value)]
        return max(0, int(value))

    def branch_probability(self, line: Optional[int]) -> float:
        """Taken probability of the forward branch at ``line``."""
        if line is not None and line in self.branch_taken:
            return self.branch_taken[line]
        return self.default_branch_taken

    def call_target(self, line: Optional[int]) -> Optional[str]:
        """Name of the device function called at ``line``, if known."""
        if line is None:
            return None
        return self.call_targets.get(line)

    def transactions(self, line: Optional[int]) -> int:
        """Memory transactions issued per access at ``line``."""
        if line is not None and line in self.uncoalesced_lines:
            return self.uncoalesced_transactions
        return 1

    def access_stride(self, line: Optional[int], sector_bytes: int = 32,
                      warp_size: int = 32) -> int:
        """Per-thread stride in bytes of the access at ``line``.

        Explicit :attr:`access_strides` entries win.  Lines marked
        uncoalesced derive their stride from :attr:`uncoalesced_transactions`,
        whose unit is 128-byte transactions (the flat model's): ``N``
        transactions means the warp's footprint spans ``N`` cache lines, a
        per-thread stride of ``N * 128 / warp_size`` bytes — so the
        hierarchy model's coalescer reproduces the flat model's transaction
        fan-out.
        """
        if line is not None and line in self.access_strides:
            return max(1, self.access_strides[line])
        if line is not None and line in self.uncoalesced_lines:
            line_bytes = 4 * sector_bytes  # one 128-byte transaction
            return max(
                self.default_access_stride_bytes,
                line_bytes * self.uncoalesced_transactions // warp_size,
            )
        return max(1, self.default_access_stride_bytes)

    def rng_for_warp(self, warp_id: int) -> random.Random:
        """A deterministic random stream for one warp."""
        return random.Random((self.seed * 1000003 + warp_id) & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    # Serialization (requests carrying workloads cross process boundaries)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-friendly form (inverse: :meth:`from_dict`).

        A per-warp trip-count tuple is written as a list of ints.  Raises
        :class:`ValueError` for an empty tuple, which gives no warp a count.
        """
        trip_counts = {}
        for line, value in self.loop_trip_counts.items():
            if isinstance(value, tuple):
                if not value:
                    raise ValueError(
                        f"workload {self.name!r} has an empty trip-count tuple "
                        f"for loop line {line}"
                    )
                trip_counts[str(line)] = [int(count) for count in value]
            else:
                trip_counts[str(line)] = int(value)
        return {
            "name": self.name,
            "loop_trip_counts": trip_counts,
            "default_trip_count": self.default_trip_count,
            "branch_taken": {str(line): prob for line, prob in self.branch_taken.items()},
            "default_branch_taken": self.default_branch_taken,
            "call_targets": {str(line): name for line, name in self.call_targets.items()},
            "uncoalesced_lines": sorted(self.uncoalesced_lines),
            "uncoalesced_transactions": self.uncoalesced_transactions,
            "working_set_bytes": self.working_set_bytes,
            "access_strides": {
                str(line): stride for line, stride in self.access_strides.items()
            },
            "default_access_stride_bytes": self.default_access_stride_bytes,
            "memory_latency_scale": self.memory_latency_scale,
            "constant_latency_scale": self.constant_latency_scale,
            "shared_latency_scale": self.shared_latency_scale,
            "seed": self.seed,
            "max_trace_ops": self.max_trace_ops,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        return cls(
            name=payload.get("name", "default"),
            loop_trip_counts={
                int(line): tuple(count) if isinstance(count, list) else count
                for line, count in (payload.get("loop_trip_counts") or {}).items()
            },
            default_trip_count=payload.get("default_trip_count", 4),
            branch_taken={
                int(line): prob for line, prob in (payload.get("branch_taken") or {}).items()
            },
            default_branch_taken=payload.get("default_branch_taken", 0.5),
            call_targets={
                int(line): name for line, name in (payload.get("call_targets") or {}).items()
            },
            uncoalesced_lines=frozenset(payload.get("uncoalesced_lines") or ()),
            uncoalesced_transactions=payload.get("uncoalesced_transactions", 8),
            working_set_bytes=payload.get("working_set_bytes", 32 * 1024 * 1024),
            access_strides={
                int(line): stride
                for line, stride in (payload.get("access_strides") or {}).items()
            },
            default_access_stride_bytes=payload.get("default_access_stride_bytes", 4),
            memory_latency_scale=payload.get("memory_latency_scale", 1.0),
            constant_latency_scale=payload.get("constant_latency_scale", 1.0),
            shared_latency_scale=payload.get("shared_latency_scale", 1.0),
            seed=payload.get("seed", 2021),
            max_trace_ops=payload.get("max_trace_ops", 20000),
        )

    # ------------------------------------------------------------------
    # Derivation helpers used by optimization transforms
    # ------------------------------------------------------------------
    def copy(self, **overrides) -> "WorkloadSpec":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)
