"""GPU machine models.

Each :class:`GpuArchitecture` instance describes the hardware parameters that
GPA's analyses need.  The default model is a Volta V100, the GPU the paper
evaluates on (Section 6): 80 SMs, 4 warp schedulers per SM, 64 warps per SM,
warp size 32, 255 registers per thread, 64K registers and 96 KiB shared
memory per SM.

Instruction latencies are taken from the opcode catalog
(:mod:`repro.isa.opcodes`), which follows the Volta microbenchmarking study
the paper cites (Jia et al.).  Architectures are registered by their CUBIN
architecture flag (e.g. ``sm_70``) so the static analyzer can fetch the right
model from the flag recorded in a binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.opcodes import OPCODES, lookup_opcode_tolerant


class ArchitectureError(KeyError):
    """Raised when an unknown architecture flag is requested."""


@dataclass(frozen=True)
class MemoryHierarchyParameters:
    """Per-SM memory-hierarchy configuration of one GPU generation.

    Consumed by :class:`repro.sampling.memory.MemoryHierarchy`, the detailed
    L1/L2/DRAM model behind ``memory_model="hierarchy"``.  All sizes are in
    bytes, all latencies in core cycles; latencies are *totals* from issue to
    completion (the microbenchmarked load-to-use figures of Jia et al.), not
    per-level increments.  The L2 figure is the per-SM *slice* of the shared
    L2 (total L2 divided by the SM count, rounded to a power-of-two-ish
    capacity), since the simulator models one SM at a time.
    """

    #: Memory transaction granularity: NVIDIA GPUs move 32-byte sectors.
    sector_bytes: int = 32
    #: L1 data cache capacity per SM.
    l1_bytes: int = 32 * 1024
    #: L1 associativity (ways per set).
    l1_ways: int = 4
    #: Load-to-use latency of an L1 hit.
    l1_hit_latency: int = 28
    #: Sector transactions the L1 pipeline accepts per cycle.
    l1_sectors_per_cycle: int = 4
    #: Miss-status holding registers: outstanding L1 sector misses before
    #: the memory pipeline throttles.
    l1_mshr_entries: int = 64
    #: This SM's slice of the shared L2 cache.
    l2_slice_bytes: int = 96 * 1024
    #: L2 associativity (ways per set).
    l2_ways: int = 16
    #: Load-to-use latency of an L2 hit.
    l2_hit_latency: int = 193
    #: Load-to-use latency of a DRAM access (before bandwidth queueing).
    dram_latency: int = 430
    #: DRAM bandwidth available to one SM, in bytes per core cycle.
    dram_bytes_per_cycle: int = 8


@dataclass(frozen=True)
class GpuArchitecture:
    """Hardware configuration for one GPU generation."""

    name: str
    #: CUBIN architecture flag, e.g. ``sm_70``.
    arch_flag: str
    #: Number of streaming multiprocessors.
    num_sms: int
    #: Warp schedulers per SM; each records PC samples round-robin.
    schedulers_per_sm: int
    #: Threads per warp.
    warp_size: int
    #: Maximum resident warps per SM.
    max_warps_per_sm: int
    #: Maximum resident thread blocks per SM.
    max_blocks_per_sm: int
    #: Maximum threads per block.
    max_threads_per_block: int
    #: 32-bit registers available per SM.
    registers_per_sm: int
    #: Maximum registers addressable per thread.
    max_registers_per_thread: int
    #: Register allocation granularity (registers are allocated per warp in
    #: multiples of this).
    register_allocation_unit: int
    #: Shared memory per SM in bytes.
    shared_memory_per_sm: int
    #: Shared memory allocation granularity in bytes.
    shared_memory_allocation_unit: int
    #: Instruction cache size in bytes (used by the instruction-fetch model
    #: and the Function Split optimizer).
    instruction_cache_bytes: int
    #: Maximum in-flight memory requests per SM before memory throttling
    #: stalls appear (used by the simulator and the Memory Transaction
    #: Reduction optimizer).
    max_outstanding_memory_requests: int
    #: Core clock in MHz (only used to convert cycles to wall-clock time in
    #: reports; analyses are cycle-based).
    clock_mhz: int = 1380
    #: Per-opcode latency overrides for this architecture.
    latency_overrides: Dict[str, int] = field(default_factory=dict)
    #: Detailed memory-hierarchy parameters (coalescing sectors, L1/L2
    #: caches, DRAM bandwidth) used when ``memory_model="hierarchy"``.
    memory: MemoryHierarchyParameters = field(
        default_factory=MemoryHierarchyParameters
    )

    # ------------------------------------------------------------------
    # Latency queries (used by the pruning rules and the simulator)
    # ------------------------------------------------------------------
    def latency(self, opcode: str) -> int:
        """Typical completion latency of ``opcode`` on this architecture."""
        base = opcode.split(".", 1)[0]
        if opcode in self.latency_overrides:
            return self.latency_overrides[opcode]
        if base in self.latency_overrides:
            return self.latency_overrides[base]
        return lookup_opcode_tolerant(opcode).latency

    def latency_upper_bound(self, opcode: str) -> int:
        """Upper-bound latency used by the latency-based pruning rule.

        The paper uses microbenchmarked latencies for fixed-latency
        instructions and pessimistic bounds (e.g. a TLB miss) for variable
        latency instructions.
        """
        info = lookup_opcode_tolerant(opcode)
        if info.is_variable_latency:
            return info.latency_upper_bound
        return self.latency(opcode)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def max_warps_per_scheduler(self) -> int:
        """Hardware limit of resident warps managed by one scheduler."""
        return self.max_warps_per_sm // self.schedulers_per_sm

    def cycles_to_microseconds(self, cycles: float) -> float:
        """Convert a cycle count to microseconds at the core clock."""
        return cycles / self.clock_mhz


#: NVIDIA Volta V100 (sm_70), the GPU used in the paper's evaluation.
VoltaV100 = GpuArchitecture(
    name="Volta V100",
    arch_flag="sm_70",
    num_sms=80,
    schedulers_per_sm=4,
    warp_size=32,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_allocation_unit=256,
    shared_memory_per_sm=96 * 1024,
    shared_memory_allocation_unit=256,
    instruction_cache_bytes=12 * 1024,
    max_outstanding_memory_requests=64,
    clock_mhz=1380,
    # 128 KiB unified L1/shared per SM with 96 KiB carved out for shared
    # memory leaves 32 KiB of L1; 6 MiB of L2 across 80 SMs is a ~77 KiB
    # slice; 900 GB/s of HBM2 at 1380 MHz is ~8 B/cycle per SM.
    memory=MemoryHierarchyParameters(
        l1_bytes=32 * 1024,
        l1_ways=4,
        l1_hit_latency=28,
        l1_sectors_per_cycle=4,
        l1_mshr_entries=64,
        l2_slice_bytes=96 * 1024,
        l2_ways=16,
        l2_hit_latency=193,
        dram_latency=430,
        dram_bytes_per_cycle=8,
    ),
)

#: A Pascal-class model (sm_60) kept for the pre-Volta 64-bit encoding note
#: in Section 2.2; analyses run identically, only limits differ.
PascalLike = GpuArchitecture(
    name="Pascal P100",
    arch_flag="sm_60",
    num_sms=56,
    schedulers_per_sm=2,
    warp_size=32,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_allocation_unit=256,
    shared_memory_per_sm=64 * 1024,
    shared_memory_allocation_unit=256,
    instruction_cache_bytes=8 * 1024,
    max_outstanding_memory_requests=48,
    clock_mhz=1328,
    latency_overrides={"LDG": 450, "LDS": 30},
    # Pascal: 24 KiB L1 per SM, 4 MiB L2 over 56 SMs, 732 GB/s HBM2.
    memory=MemoryHierarchyParameters(
        l1_bytes=24 * 1024,
        l1_ways=4,
        l1_hit_latency=82,
        l1_sectors_per_cycle=2,
        l1_mshr_entries=48,
        l2_slice_bytes=72 * 1024,
        l2_ways=16,
        l2_hit_latency=234,
        dram_latency=450,
        dram_bytes_per_cycle=9,
    ),
)

#: A Kepler-class model (sm_35), the oldest generation with PC sampling.
KeplerLike = GpuArchitecture(
    name="Kepler K80",
    arch_flag="sm_35",
    num_sms=13,
    schedulers_per_sm=4,
    warp_size=32,
    max_warps_per_sm=64,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_allocation_unit=256,
    shared_memory_per_sm=48 * 1024,
    shared_memory_allocation_unit=256,
    instruction_cache_bytes=8 * 1024,
    max_outstanding_memory_requests=32,
    clock_mhz=875,
    latency_overrides={"LDG": 600, "FADD": 9, "FMUL": 9, "FFMA": 9, "IADD": 9},
    # Kepler: 16 KiB L1 (48 KiB shared config), 1.5 MiB L2 over 13 SMs,
    # 240 GB/s GDDR5 per GPU half of a K80.
    memory=MemoryHierarchyParameters(
        l1_bytes=16 * 1024,
        l1_ways=4,
        l1_hit_latency=35,
        l1_sectors_per_cycle=2,
        l1_mshr_entries=32,
        l2_slice_bytes=120 * 1024,
        l2_ways=16,
        l2_hit_latency=222,
        dram_latency=600,
        dram_bytes_per_cycle=20,
    ),
)


#: A Turing-class model (sm_75).  Turing halves the warp slots per SM (32
#: instead of Volta's 64) and has less shared memory, so occupancy-limited
#: launches diverge sharply from the V100 in multi-architecture sweeps.
TuringLike = GpuArchitecture(
    name="Turing T4",
    arch_flag="sm_75",
    num_sms=40,
    schedulers_per_sm=4,
    warp_size=32,
    max_warps_per_sm=32,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_allocation_unit=256,
    shared_memory_per_sm=64 * 1024,
    shared_memory_allocation_unit=256,
    instruction_cache_bytes=16 * 1024,
    max_outstanding_memory_requests=48,
    clock_mhz=1590,
    latency_overrides={"LDG": 420, "LDS": 22},
    # Turing T4: 96 KiB unified L1/shared (64 KiB shared leaves 32 KiB L1),
    # 4 MiB L2 over 40 SMs, 320 GB/s GDDR6 at 1590 MHz is ~5 B/cycle/SM.
    memory=MemoryHierarchyParameters(
        l1_bytes=32 * 1024,
        l1_ways=4,
        l1_hit_latency=32,
        l1_sectors_per_cycle=4,
        l1_mshr_entries=48,
        l2_slice_bytes=100 * 1024,
        l2_ways=16,
        l2_hit_latency=188,
        dram_latency=420,
        dram_bytes_per_cycle=5,
    ),
)

#: An Ampere-class model (sm_80).  The A100 raises the SM count, shared
#: memory capacity and memory-level parallelism well beyond the V100.
AmpereLike = GpuArchitecture(
    name="Ampere A100",
    arch_flag="sm_80",
    num_sms=108,
    schedulers_per_sm=4,
    warp_size=32,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_allocation_unit=256,
    shared_memory_per_sm=164 * 1024,
    shared_memory_allocation_unit=256,
    instruction_cache_bytes=32 * 1024,
    max_outstanding_memory_requests=96,
    clock_mhz=1410,
    latency_overrides={"LDG": 360, "LDS": 22, "BAR": 20},
    # Ampere A100: 192 KiB unified L1/shared (164 KiB shared leaves fast
    # 28 KiB, but the common carve-out keeps 64 KiB of L1); 40 MiB L2 over
    # 108 SMs is a ~380 KiB slice; 1555 GB/s HBM2e is ~10 B/cycle per SM.
    memory=MemoryHierarchyParameters(
        l1_bytes=64 * 1024,
        l1_ways=4,
        l1_hit_latency=33,
        l1_sectors_per_cycle=4,
        l1_mshr_entries=96,
        l2_slice_bytes=384 * 1024,
        l2_ways=16,
        l2_hit_latency=200,
        dram_latency=290,
        dram_bytes_per_cycle=10,
    ),
)


_REGISTRY: Dict[str, GpuArchitecture] = {}


def register_architecture(architecture: GpuArchitecture) -> None:
    """Register an architecture so it can be looked up by its arch flag."""
    _REGISTRY[architecture.arch_flag] = architecture


def get_architecture(arch_flag: str) -> GpuArchitecture:
    """Fetch the architecture model registered for ``arch_flag``.

    Raises :class:`ArchitectureError` if the flag is unknown.
    """
    try:
        return _REGISTRY[arch_flag]
    except KeyError as exc:
        raise ArchitectureError(
            f"unknown architecture flag {arch_flag!r}; known: {sorted(_REGISTRY)}"
        ) from exc


def architecture_flags() -> list:
    """The registered CUBIN architecture flags, sorted (for CLI choices)."""
    return sorted(_REGISTRY)


for _arch in (VoltaV100, PascalLike, KeplerLike, TuringLike, AmpereLike):
    register_architecture(_arch)
