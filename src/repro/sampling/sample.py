"""Samples, per-instruction aggregates, kernel profiles and launch statistics.

A :class:`KernelProfile` is the unit of data GPA's dynamic analyzer consumes
for one kernel launch: per-instruction stall counts by reason, per-instruction
issue counts, kernel-level totals (total / active / latency samples) and the
launch statistics (grid, block, occupancy, simulated cycles).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sampling.memory import MemoryStatistics
from repro.sampling.stall_reasons import StallReason


#: Key identifying one static instruction in a profile: (function, offset).
InstructionKey = Tuple[str, int]


@dataclass(frozen=True)
class PCSample:
    """One raw PC sample, as CUPTI would report it."""

    #: Cycle at which the sample was taken.
    cycle: int
    #: SM and scheduler that were sampled.
    sm_id: int
    scheduler_id: int
    #: Warp whose state was observed.
    warp_id: int
    #: Function and byte offset of the sampled warp's current instruction.
    function: str
    offset: int
    #: Stall reason of the sampled warp (``SELECTED`` when it issued).
    reason: StallReason
    #: Whether the scheduler issued *any* instruction this cycle.  Samples
    #: with ``is_active=False`` are latency samples (Figure 1).
    is_active: bool


@dataclass
class InstructionSamples:
    """Aggregated samples for one static instruction."""

    function: str
    offset: int
    #: Latency (stall) samples by reason, taken while the sampled warp sat at
    #: this instruction and the scheduler was not issuing.
    stalls: Dict[StallReason, int] = field(default_factory=dict)
    #: Active samples in which this instruction was the one being issued.
    issue_samples: int = 0

    @property
    def key(self) -> InstructionKey:
        return (self.function, self.offset)

    @property
    def total_stalls(self) -> int:
        return sum(self.stalls.values())

    @property
    def total_samples(self) -> int:
        return self.total_stalls + self.issue_samples

    def add_stall(self, reason: StallReason, count: int = 1) -> None:
        self.stalls[reason] = self.stalls.get(reason, 0) + count

    def merge(self, other: "InstructionSamples") -> None:
        if other.key != self.key:
            raise ValueError("cannot merge samples of different instructions")
        for reason, count in other.stalls.items():
            self.add_stall(reason, count)
        self.issue_samples += other.issue_samples


@dataclass(frozen=True)
class LaunchConfig:
    """A kernel launch configuration."""

    grid_blocks: int
    threads_per_block: int
    shared_memory_bytes: int = 0

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0:
            raise ValueError("grid_blocks must be positive")
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block

    def with_blocks(self, grid_blocks: int) -> "LaunchConfig":
        return LaunchConfig(grid_blocks, self.threads_per_block, self.shared_memory_bytes)

    def with_threads(self, threads_per_block: int) -> "LaunchConfig":
        return LaunchConfig(self.grid_blocks, threads_per_block, self.shared_memory_bytes)

    def to_dict(self) -> dict:
        return {
            "grid_blocks": self.grid_blocks,
            "threads_per_block": self.threads_per_block,
            "shared_memory_bytes": self.shared_memory_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LaunchConfig":
        return cls(
            grid_blocks=payload["grid_blocks"],
            threads_per_block=payload["threads_per_block"],
            shared_memory_bytes=payload.get("shared_memory_bytes", 0),
        )


@dataclass
class LaunchStatistics:
    """Statistics of one simulated kernel launch."""

    kernel: str
    config: LaunchConfig
    registers_per_thread: int
    blocks_per_sm: int
    warps_per_sm: int
    warps_per_scheduler: float
    occupancy: float
    occupancy_limiter: str
    waves: float
    #: Cycles taken by the simulated wave on one SM (the first full dispatch
    #: wave under the whole-GPU scope).
    wave_cycles: int
    #: Total kernel cycles: ``wave_cycles * waves`` extrapolation under the
    #: single-wave scope, the *measured* sum of per-wave maxima under the
    #: whole-GPU scope.
    kernel_cycles: float
    sample_period: int
    #: Which simulation engine produced these statistics ("single_wave" or
    #: "whole_gpu"); see :data:`repro.sampling.profiler.SIMULATION_SCOPES`.
    simulation_scope: str = "single_wave"
    #: Which memory model serviced global accesses ("flat" or "hierarchy");
    #: see :data:`repro.sampling.memory.MEMORY_MODELS`.
    memory_model: str = "flat"
    #: Coalescing and cache statistics (``None`` under the flat model).
    memory: Optional[MemoryStatistics] = None

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "grid_blocks": self.config.grid_blocks,
            "threads_per_block": self.config.threads_per_block,
            "shared_memory_bytes": self.config.shared_memory_bytes,
            "registers_per_thread": self.registers_per_thread,
            "blocks_per_sm": self.blocks_per_sm,
            "warps_per_sm": self.warps_per_sm,
            "warps_per_scheduler": self.warps_per_scheduler,
            "occupancy": self.occupancy,
            "occupancy_limiter": self.occupancy_limiter,
            "waves": self.waves,
            "wave_cycles": self.wave_cycles,
            "kernel_cycles": self.kernel_cycles,
            "sample_period": self.sample_period,
            "simulation_scope": self.simulation_scope,
            "memory_model": self.memory_model,
            "memory": self.memory.to_dict() if self.memory is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LaunchStatistics":
        return cls(
            kernel=payload["kernel"],
            config=LaunchConfig(
                payload["grid_blocks"],
                payload["threads_per_block"],
                payload.get("shared_memory_bytes", 0),
            ),
            registers_per_thread=payload["registers_per_thread"],
            blocks_per_sm=payload["blocks_per_sm"],
            warps_per_sm=payload["warps_per_sm"],
            warps_per_scheduler=payload["warps_per_scheduler"],
            occupancy=payload["occupancy"],
            occupancy_limiter=payload["occupancy_limiter"],
            waves=payload["waves"],
            wave_cycles=payload["wave_cycles"],
            kernel_cycles=payload["kernel_cycles"],
            sample_period=payload["sample_period"],
            simulation_scope=payload.get("simulation_scope", "single_wave"),
            memory_model=payload.get("memory_model", "flat"),
            memory=(
                MemoryStatistics.from_dict(payload["memory"])
                if payload.get("memory") is not None
                else None
            ),
        )


@dataclass
class KernelProfile:
    """The profile GPA analyzes for one kernel launch."""

    kernel: str
    statistics: LaunchStatistics
    instructions: Dict[InstructionKey, InstructionSamples] = field(default_factory=dict)
    #: Kernel-level totals.
    total_samples: int = 0
    active_samples: int = 0
    latency_samples: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def record_stall(self, function: str, offset: int, reason: StallReason, count: int = 1) -> None:
        """Record latency samples at an instruction with a stall reason."""
        key = (function, offset)
        entry = self.instructions.get(key)
        if entry is None:
            entry = InstructionSamples(function=function, offset=offset)
            self.instructions[key] = entry
        entry.add_stall(reason, count)
        self.latency_samples += count
        self.total_samples += count

    def record_issue(self, function: str, offset: int, count: int = 1) -> None:
        """Record active samples for the instruction that was issuing."""
        key = (function, offset)
        entry = self.instructions.get(key)
        if entry is None:
            entry = InstructionSamples(function=function, offset=offset)
            self.instructions[key] = entry
        entry.issue_samples += count
        self.active_samples += count
        self.total_samples += count

    # ------------------------------------------------------------------
    # Queries used by the blamer, optimizers and estimators
    # ------------------------------------------------------------------
    def samples_at(self, function: str, offset: int) -> Optional[InstructionSamples]:
        return self.instructions.get((function, offset))

    def issue_samples_at(self, function: str, offset: int) -> int:
        entry = self.instructions.get((function, offset))
        return entry.issue_samples if entry else 0

    def stall_samples(self) -> List[InstructionSamples]:
        """All per-instruction aggregates that carry at least one stall."""
        return [entry for entry in self.instructions.values() if entry.total_stalls > 0]

    def stalls_by_reason(self) -> Dict[StallReason, int]:
        """Kernel-level stall totals by reason."""
        totals: Dict[StallReason, int] = defaultdict(int)
        for entry in self.instructions.values():
            for reason, count in entry.stalls.items():
                totals[reason] += count
        return dict(totals)

    def functions(self) -> List[str]:
        """Functions that appear in the profile (kernel + device functions)."""
        names = []
        for function, _offset in self.instructions:
            if function not in names:
                names.append(function)
        return names

    @property
    def stall_ratio(self) -> float:
        """Latency samples / total samples (the kernel stall ratio of §2.1)."""
        return self.latency_samples / self.total_samples if self.total_samples else 0.0

    @property
    def active_ratio(self) -> float:
        """Active samples / total samples."""
        return self.active_samples / self.total_samples if self.total_samples else 0.0

    @property
    def issue_rate(self) -> float:
        """Alias of :attr:`active_ratio`, the R_I of Equation 8."""
        return self.active_ratio

    # ------------------------------------------------------------------
    # Serialization (profiles are dumped for offline analysis)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "statistics": self.statistics.to_dict(),
            "totals": {
                "total_samples": self.total_samples,
                "active_samples": self.active_samples,
                "latency_samples": self.latency_samples,
            },
            "instructions": [
                {
                    "function": entry.function,
                    "offset": entry.offset,
                    "issue_samples": entry.issue_samples,
                    "stalls": {reason.value: count for reason, count in entry.stalls.items()},
                }
                for entry in sorted(
                    self.instructions.values(), key=lambda e: (e.function, e.offset)
                )
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelProfile":
        profile = cls(
            kernel=payload["kernel"],
            statistics=LaunchStatistics.from_dict(payload["statistics"]),
        )
        for entry in payload["instructions"]:
            key = (entry["function"], entry["offset"])
            samples = InstructionSamples(
                function=entry["function"],
                offset=entry["offset"],
                issue_samples=entry["issue_samples"],
                stalls={
                    StallReason(reason): count for reason, count in entry["stalls"].items()
                },
            )
            profile.instructions[key] = samples
        totals = payload["totals"]
        profile.total_samples = totals["total_samples"]
        profile.active_samples = totals["active_samples"]
        profile.latency_samples = totals["latency_samples"]
        return profile

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "KernelProfile":
        return cls.from_dict(json.loads(text))
