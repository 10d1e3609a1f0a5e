"""Per-warp dynamic trace generation.

``generate_warp_trace`` walks one warp's execution path through a function's
control flow graph using the :class:`~repro.sampling.workload.WorkloadSpec`:
loops iterate for their configured trip counts, data-dependent forward
branches are decided by a deterministic per-warp random stream, and ``CAL``
instructions descend into device functions.  Each executed instruction
becomes a :class:`TraceOp` annotated with its dynamic memory latency, the
number of memory transactions it issues, and any instruction-fetch stall
charged to it (present when the executed code footprint exceeds the
instruction cache).

Most executed instructions carry no dynamic state at all.  Each static
instruction that is not memory, not variable-latency and not a call or exit
has one *shared* :class:`TraceOp`, and each basic block precomputes the runs
of such ops so the walk appends straight-line code with one ``list.extend``.
Shared ops appear in many traces at once, so nothing may mutate a
:class:`TraceOp` after the walk returns it: replace the list entry instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.arch.machine import GpuArchitecture
from repro.isa.instruction import Instruction
from repro.isa.registers import MemorySpace
from repro.sampling.memory import THROTTLED_SPACES
from repro.sampling.stall_reasons import StallReason
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import FunctionStructure, ProgramStructure


@dataclass(slots=True)
class TraceOp:
    """One dynamically executed instruction of one warp.

    An op may be shared by many traces (see the module docstring), so it is
    never mutated once a trace holds it.
    """

    #: Function the instruction belongs to (kernel or device function).
    function: str
    instruction: Instruction
    #: Completion latency for variable-latency instructions (cycles).
    latency: int = 0
    #: Memory transactions issued (0 for non-memory instructions).
    transactions: int = 0
    #: Instruction-fetch stall charged before this op issues (cycles).
    fetch_stall: int = 0
    #: Base byte address of the warp's access (hierarchy memory model);
    #: thread ``t`` accesses ``address + t * stride_bytes``.
    address: int = 0
    #: Per-thread stride in bytes; 0 marks an op without address
    #: information (non-memory, or a hand-built trace).
    stride_bytes: int = 0

    @property
    def offset(self) -> int:
        return self.instruction.offset

    @property
    def opcode(self) -> str:
        return self.instruction.opcode


class TraceError(RuntimeError):
    """Raised when a trace cannot be generated (e.g. unresolved call)."""


# ----------------------------------------------------------------------
# Packed static instruction metadata
# ----------------------------------------------------------------------
class OpMeta:
    """Packed static metadata of one :class:`~repro.isa.instruction.Instruction`.

    Both simulator cores consult the same per-instruction facts on every
    dynamic execution of an op — the control code's barrier fields, the
    def/use register sets, whether the op is throttled memory, the stall
    reason a dependent warp reports while waiting on it.  Deriving them
    through the instruction's ``cached_property`` chain costs an attribute
    dispatch per access per dynamic op; an :class:`OpMeta` resolves them
    once per *static* instruction (memoized on the instruction, see
    :func:`instruction_meta`) into plain slots the hot loops read
    directly.

    ``wait_mask`` preserves the iteration order of the control code's
    frozenset: the cores break latest-barrier ties by scan order, so the
    packed order must match what iterating the frozenset produced.
    """

    __slots__ = (
        "opcode", "offset", "wait_mask", "write_barrier", "read_barrier",
        "stall_cycles", "is_bar", "is_memory", "is_throttled_memory",
        "used_regs", "defined_regs", "is_variable_latency", "barrier_reason",
    )

    def __init__(self, instruction: Instruction):
        control = instruction.control
        info = instruction.info
        self.opcode = instruction.opcode
        self.offset = instruction.offset
        self.wait_mask = tuple(control.wait_mask)
        self.write_barrier = control.write_barrier
        self.read_barrier = control.read_barrier
        self.stall_cycles = control.stall_cycles
        self.is_bar = info.is_synchronization and instruction.opcode == "BAR"
        self.is_memory = info.is_memory
        self.is_throttled_memory = (
            info.is_memory and instruction.memory_space in THROTTLED_SPACES
        )
        self.used_regs = tuple(reg.index for reg in instruction.used_registers)
        self.defined_regs = tuple(reg.index for reg in instruction.defined_registers)
        self.is_variable_latency = info.is_variable_latency
        self.barrier_reason = self._classify_barrier(instruction)

    @staticmethod
    def _classify_barrier(instruction: Instruction) -> StallReason:
        """Stall reason of a warp waiting on a barrier this op holds."""
        space = instruction.memory_space
        if space in (MemorySpace.GLOBAL, MemorySpace.GENERIC, MemorySpace.LOCAL,
                     MemorySpace.CONSTANT):
            if instruction.is_load:
                return StallReason.MEMORY_DEPENDENCY
            # Stores hold a read barrier: a later overwrite waits -> WAR hazard.
            return StallReason.EXECUTION_DEPENDENCY
        if space is MemorySpace.TEXTURE:
            return StallReason.TEXTURE
        return StallReason.EXECUTION_DEPENDENCY


def instruction_meta(instruction: Instruction) -> OpMeta:
    """The packed metadata of ``instruction``, memoized on the instruction.

    The memo lives in the instance ``__dict__`` beside the instruction's
    ``cached_property`` facts (the same write ``cached_property`` makes on
    this frozen class), so it is freed with the program that owns it.
    """
    facts = instruction.__dict__
    meta = facts.get("_op_meta")
    if meta is None:
        meta = facts["_op_meta"] = OpMeta(instruction)
    return meta


def cached_latency(architecture: GpuArchitecture, opcode: str) -> int:
    """``architecture.latency(opcode)``, memoized on the architecture object."""
    latencies = architecture.__dict__.get("_opcode_latencies")
    if latencies is None:
        latencies = architecture.__dict__["_opcode_latencies"] = {}
    latency = latencies.get(opcode)
    if latency is None:
        latency = latencies[opcode] = architecture.latency(opcode)
    return latency


#: Latency scale classes of a variable-latency op (packed per block).
_SCALE_NONE, _SCALE_MEMORY, _SCALE_CONSTANT, _SCALE_SHARED = range(4)

#: Memory spaces that scale with :attr:`WorkloadSpec.memory_latency_scale`.
_MEMORY_SCALED_SPACES = (
    MemorySpace.GLOBAL, MemorySpace.GENERIC, MemorySpace.LOCAL, MemorySpace.TEXTURE,
)


def _scale_kind(space: Optional[MemorySpace]) -> int:
    if space in _MEMORY_SCALED_SPACES:
        return _SCALE_MEMORY
    if space is MemorySpace.CONSTANT:
        return _SCALE_CONSTANT
    if space is MemorySpace.SHARED:
        return _SCALE_SHARED
    return _SCALE_NONE


def _block_records(block, function: str) -> list:
    """Packed walk records of one basic block of ``function``.

    One ``(run, step)`` pair per instruction the walk must look at:
    ``run`` is the tuple of shared :class:`TraceOp` of the static
    instructions before it (not memory, not variable-latency, not call or
    exit), and ``step`` is
    ``(instruction, needs_dynamic, is_memory, throttled, line, is_call,
    is_exit, scale_kind, opcode)``.  A final ``(run, None)`` closes a
    block that ends in a run.

    The records are memoized on the block, so every warp of a launch
    shares them and they are freed with the program structure.
    """
    memo = block.__dict__.get("_walk_records")
    if memo is not None and memo[0] == function:
        return memo[1]
    records = []
    run: List[TraceOp] = []
    for instruction in block.instructions:
        meta = instruction_meta(instruction)
        needs_dynamic = meta.is_memory or meta.is_variable_latency
        is_call = instruction.is_call
        is_exit = instruction.is_exit
        if not (needs_dynamic or is_call or is_exit):
            run.append(TraceOp(function=function, instruction=instruction))
            continue
        records.append((tuple(run), (
            instruction,
            needs_dynamic,
            meta.is_memory,
            meta.is_throttled_memory,
            instruction.line,
            is_call,
            is_exit,
            _scale_kind(instruction.memory_space),
            meta.opcode,
        )))
        run = []
    if run:
        records.append((tuple(run), None))
    block._walk_records = (function, records)
    return records


def generate_warp_trace(
    structure: ProgramStructure,
    kernel_name: str,
    workload: WorkloadSpec,
    architecture: GpuArchitecture,
    warp_id: int,
    num_warps: int,
) -> List[TraceOp]:
    """Generate the dynamic instruction trace of one warp."""
    rng = workload.rng_for_warp(warp_id)
    uniform = rng.uniform
    ops: List[TraceOp] = []
    append_op = ops.append
    extend_ops = ops.extend
    executed_functions: Set[str] = set()
    sector_bytes = architecture.memory.sector_bytes
    warp_size = architecture.warp_size
    max_trace_ops = workload.max_trace_ops
    memory_scale = workload.memory_latency_scale
    #: scale_kind -> base latency scale (memory transactions add on top).
    kind_scales = (
        1.0, memory_scale, workload.constant_latency_scale,
        workload.shared_latency_scale,
    )
    #: Per-call memos: line -> transactions / stride, and stride -> this
    #: warp's address layout (request bytes, working set, partition, base).
    line_transactions: Dict[Optional[int], int] = {}
    line_stride: Dict[Optional[int], int] = {}
    stride_layout: Dict[int, Tuple[int, int, int, int]] = {}
    #: Per-warp count of hierarchy-visible memory accesses, used to walk
    #: the warp through its working-set partition deterministically.
    memory_accesses = 0

    def walk(function_name: str, depth: int) -> None:
        nonlocal memory_accesses
        if depth > 8:
            raise TraceError(f"call depth limit exceeded while tracing {kernel_name}")
        function_structure = structure.function(function_name)
        executed_functions.add(function_name)
        cfg = function_structure.cfg
        block = cfg.entry
        back_edge_taken: Dict[int, int] = {}

        while True:
            if len(ops) >= max_trace_ops:
                return
            for run, step in _block_records(block, function_name):
                if run:
                    room = max_trace_ops - len(ops)
                    if len(run) >= room:
                        extend_ops(run[:room])
                        return
                    extend_ops(run)
                elif len(ops) >= max_trace_ops:
                    return
                if step is None:
                    break
                (instruction, needs_dynamic, is_memory, throttled, line,
                 is_call, is_exit, scale_kind, opcode) = step
                transactions = 0
                latency = 0
                address = 0
                stride = 0
                if needs_dynamic:
                    if is_memory:
                        transactions = line_transactions.get(line)
                        if transactions is None:
                            transactions = workload.transactions(line)
                            line_transactions[line] = transactions
                        if throttled:
                            # Each warp streams through its own partition of
                            # the working set, wrapping at the end.  The
                            # address is a pure function of the access
                            # count — it consumes no randomness, so the flat
                            # model's traces stay bit-identical.
                            stride = line_stride.get(line)
                            if stride is None:
                                stride = workload.access_stride(
                                    line, sector_bytes, warp_size
                                )
                                line_stride[line] = stride
                            layout = stride_layout.get(stride)
                            if layout is None:
                                request_bytes = max(1, warp_size * stride)
                                working_set = max(
                                    request_bytes, workload.working_set_bytes
                                )
                                partition = max(
                                    request_bytes, working_set // max(1, num_warps)
                                )
                                layout = (
                                    request_bytes, working_set, partition,
                                    (warp_id * partition) % working_set,
                                )
                                stride_layout[stride] = layout
                            request_bytes, working_set, partition, base = layout
                            address = (
                                base + (memory_accesses * request_bytes) % partition
                            ) % working_set
                            memory_accesses += 1
                    # Completion latency: the opcode's base latency times
                    # its space's scale and a jitter draw; uncoalesced
                    # accesses serialize transactions at the memory pipe.
                    jitter = uniform(0.85, 1.25)
                    scale = kind_scales[scale_kind]
                    if scale_kind == _SCALE_MEMORY and transactions > 1:
                        scale *= 1.0 + 0.15 * (transactions - 1)
                    base_latency = cached_latency(architecture, opcode)
                    latency = max(1, int(base_latency * scale * jitter))
                append_op(
                    TraceOp(
                        function=function_name,
                        instruction=instruction,
                        latency=latency,
                        transactions=transactions,
                        address=address,
                        stride_bytes=stride,
                    )
                )
                if is_call:
                    callee = workload.call_target(line)
                    if callee is not None and callee in structure.functions:
                        walk(callee, depth + 1)
                if is_exit:
                    return

            terminator = block.terminator
            successors = cfg.successors.get(block.index, [])
            if terminator is None or not successors:
                return

            if terminator.is_branch and terminator.target is not None:
                target_block = None
                try:
                    target_block = cfg.block_containing(terminator.target)
                except KeyError:
                    target_block = None

                is_back_edge = terminator.target <= terminator.offset
                if is_back_edge and target_block is not None:
                    header_instruction = cfg.instruction_at(terminator.target)
                    trips = workload.trip_count(header_instruction.line, warp_id)
                    taken = back_edge_taken.get(terminator.offset, 0)
                    if taken + 1 < trips:
                        back_edge_taken[terminator.offset] = taken + 1
                        block = target_block
                        continue
                    back_edge_taken[terminator.offset] = 0
                    fall_through = [s for s in successors if s != target_block.index]
                    if fall_through:
                        block = cfg.blocks[fall_through[0]]
                        continue
                    return
                # Forward branch.
                if target_block is None:
                    block = cfg.blocks[successors[0]]
                    continue
                if not terminator.is_predicated or len(successors) == 1:
                    block = target_block
                    continue
                probability = workload.branch_probability(terminator.line)
                if rng.random() < probability:
                    block = target_block
                else:
                    fall_through = [s for s in successors if s != target_block.index]
                    block = cfg.blocks[fall_through[0]] if fall_through else target_block
                continue

            # Fall through (non-branch terminator or branch without target).
            block = cfg.blocks[successors[0]]

    walk(kernel_name, depth=0)

    _charge_fetch_stalls(ops, executed_functions, structure, architecture)
    return ops


def _charge_fetch_stalls(
    ops: List[TraceOp],
    executed_functions: Set[str],
    structure: ProgramStructure,
    architecture: GpuArchitecture,
) -> None:
    """Charge instruction-fetch stalls when the code footprint exceeds the i-cache.

    The footprint is the total code size of every function the warp executed.
    Pressure above 1.0 causes periodic fetch stalls whose frequency and size
    grow with the pressure — the signal the Function Split optimizer matches
    (Table 2: "Match instruction fetch stalls").  Each charged op is
    replaced by a fresh copy, since the op in the list may be shared.
    """
    footprint = sum(
        structure.function(name).function.code_size for name in executed_functions
    )
    pressure = footprint / architecture.instruction_cache_bytes
    if pressure <= 1.0 or not ops:
        return
    period = max(6, int(48 / pressure))
    stall = max(4, int(8 * min(pressure, 4.0)))
    for index in range(period, len(ops), period):
        ops[index] = replace(ops[index], fetch_stall=stall)
