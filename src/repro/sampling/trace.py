"""Per-warp dynamic trace generation.

``generate_warp_trace`` walks one warp's execution path through a function's
control flow graph using the :class:`~repro.sampling.workload.WorkloadSpec`:
loops iterate for their configured trip counts, data-dependent forward
branches are decided by a deterministic per-warp random stream, and ``CAL``
instructions descend into device functions.  Each executed instruction
becomes one *record*: the flat tuple the SM simulator
(:class:`~repro.sampling.vector.VectorSMSimulator`) steps on, laid out in
``docs/SIMULATOR.md`` ("The packed-array layout").  A record carries the
instruction's static facts and its dynamic ones: the memory latency, the
transactions it issues, the access's address and stride, and any
instruction-fetch stall charged to it (present when the executed code
footprint exceeds the instruction cache).

Most executed instructions carry no dynamic state at all.  Each basic block
memoizes a *plan* for one architecture and program: runs of one shared
record per static instruction that is not memory, not variable-latency and
not a call or exit, which the walk appends with one ``list.extend``; steps
for the other instructions, each carrying its instruction's static record
prefix, so the walk builds a dynamic op's record as ``static + tail``; and
the block's resolved exit.  Shared records appear in many traces at once.
Records are tuples, so none can change: code that needs a different record
replaces the list entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.arch.machine import GpuArchitecture
from repro.isa.instruction import Instruction
from repro.isa.registers import MemorySpace
from repro.sampling.memory import THROTTLED_SPACES
from repro.sampling.stall_reasons import StallReason
from repro.sampling.workload import WorkloadSpec
from repro.structure.program import ProgramStructure


class TraceError(RuntimeError):
    """Raised when a trace cannot be generated (e.g. unresolved call)."""


# ----------------------------------------------------------------------
# Record layout, shared with repro.sampling.vector
# ----------------------------------------------------------------------
# Stall codes.  The simulator carries stall reasons as small ints: a code is
# the member's index in ``_REASONS``; record slot 8 holds one.
_REASONS: Tuple[StallReason, ...] = tuple(StallReason)
_CODE_OF: Dict[StallReason, int] = {reason: code for code, reason in enumerate(_REASONS)}

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

# Record tuple positions (static prefix 0-9 per instruction and
# architecture, 10-15 per dynamic op, 16-17 per instruction and program):
#   0 flags          1 wait_mask     2 used_regs     3 write_barrier
#   4 read_barrier   5 stall_inc     6 fixed_latency 7 defined_regs
#   8 barrier_reason 9 offset       10 fetch_stall  11 mem_inc
#  12 read_hold     13 transactions 14 address      15 stride
#  16 site          17 sites
# Slot 17 is the program's site table, a tuple of ``(function, offset)``
# keys shared by every record of the program; ``rec[17][rec[16]]`` is the
# op's key.


# ----------------------------------------------------------------------
# Packed static instruction metadata
# ----------------------------------------------------------------------
class OpMeta:
    """Packed static metadata of one :class:`~repro.isa.instruction.Instruction`.

    The record's static prefix needs per-instruction facts — the control
    code's barrier fields, the def/use register sets, whether the op is
    throttled memory, the stall reason a dependent warp reports while
    waiting on it.  Deriving them through the instruction's
    ``cached_property`` chain costs an attribute dispatch per access; an
    :class:`OpMeta` resolves them once per *static* instruction (memoized
    on the instruction, see :func:`instruction_meta`) into plain slots.

    ``wait_mask`` preserves the iteration order of the control code's
    frozenset: the core breaks latest-barrier ties by scan order, so the
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


def _static_prefix(meta: OpMeta, architecture: GpuArchitecture) -> tuple:
    """Record slots 0-9 of an instruction on ``architecture``."""
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
    return (
        flags,
        meta.wait_mask,
        meta.used_regs,
        meta.write_barrier,
        meta.read_barrier,
        max(1, meta.stall_cycles),
        fixed_latency,
        meta.defined_regs,
        _CODE_OF[meta.barrier_reason],
        meta.offset,
    )


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


def _site_table(structure: ProgramStructure) -> Tuple[Tuple[Tuple[str, int], ...], dict]:
    """The program's site table and its inverse, memoized on the program.

    ``sites[n]`` is the ``(function, offset)`` of site ``n``, the number
    record slot 16 holds; the dict maps a key back to its number.  The
    table numbers every instruction of the program at once (each function
    in turn, in offset order), so it is complete before any block is
    planned and walks on other threads only read it.  Racing first calls
    may each build one; ``setdefault`` keeps the first for all of them.
    """
    table = structure.__dict__.get("_trace_sites")
    if table is None:
        sites = tuple(
            (name, instruction.offset)
            for name, function in structure.functions.items()
            for instruction in function.cfg.instructions()
        )
        table = structure.__dict__.setdefault(
            "_trace_sites", (sites, {key: site for site, key in enumerate(sites)})
        )
    return table


#: How the walk leaves a block (the first item of a block's exit).
_EXIT_RETURN, _EXIT_GOTO, _EXIT_LOOP, _EXIT_BRANCH = range(4)


def _block_exit(block, cfg) -> tuple:
    """Where the walk goes after ``block``, resolved once per block.

    One of ``(_EXIT_RETURN,)``, ``(_EXIT_GOTO, next)``,
    ``(_EXIT_LOOP, header, fall_through, header_line, back_edge)`` for a
    back edge (``fall_through`` is ``None`` when the loop has no exit
    edge), or ``(_EXIT_BRANCH, target, fall_through, branch_line)`` for a
    predicated forward branch the walk decides with a random draw.  Blocks
    are referred to by index, so no block's memo refers to another block.
    """
    terminator = block.terminator
    successors = cfg.successors.get(block.index, [])
    if terminator is None or not successors:
        return (_EXIT_RETURN,)
    if not (terminator.is_branch and terminator.target is not None):
        return (_EXIT_GOTO, successors[0])
    try:
        target = cfg.block_containing(terminator.target).index
    except KeyError:
        return (_EXIT_GOTO, successors[0])
    fall_through = [s for s in successors if s != target]
    if terminator.target <= terminator.offset:
        header_line = cfg.instruction_at(terminator.target).line
        return (
            _EXIT_LOOP, target, fall_through[0] if fall_through else None,
            header_line, terminator.offset,
        )
    if not terminator.is_predicated or len(successors) == 1:
        return (_EXIT_GOTO, target)
    return (
        _EXIT_BRANCH, target, fall_through[0] if fall_through else target,
        terminator.line,
    )


def _plan_block(block, cfg, function: str, architecture: GpuArchitecture,
                sites: tuple, site_of: dict) -> tuple:
    """Plan one basic block of ``function`` and memoize the plan on it.

    The plan is ``(steps, exit)``.

    ``steps`` holds one ``(run, step)`` pair per instruction the walk must
    look at: ``run`` is the tuple of shared records of the static
    instructions before it (not memory, not variable-latency, not call or
    exit), and ``step`` is ``(record, static, base_latency, is_memory,
    throttled, line, is_call, is_exit, scale_kind, site)``.  ``record`` is
    the op's shared record when it has no dynamic state (a plain call or
    exit) and ``None`` otherwise.  A final ``(run, None)`` closes a block
    that ends in a run.  ``exit`` is :func:`_block_exit`.

    The memo, ``block._trace_plan = (architecture, sites, plan)``, is
    keyed by architecture (the plan holds its latencies) and by program
    (the site table ``sites`` its records point to), so every warp of the
    program shares it and it is freed with the program structure.  Returns
    the memo.
    """
    steps = []
    run: List[tuple] = []
    for instruction in block.instructions:
        meta = instruction_meta(instruction)
        site = site_of[function, meta.offset]
        static = _static_prefix(meta, architecture)
        needs_dynamic = meta.is_memory or meta.is_variable_latency
        shared = None
        if not needs_dynamic:
            # Record of an op with no dynamic state: latency 0 (mem_inc 1,
            # read_hold 20), no transactions, no address, no fetch stall.
            shared = static + (0, 1, 20, 1, 0, 0, site, sites)
        is_call = instruction.is_call
        is_exit = instruction.is_exit
        if not (needs_dynamic or is_call or is_exit):
            run.append(shared)
            continue
        steps.append((tuple(run), (
            shared,
            static,
            cached_latency(architecture, meta.opcode),
            meta.is_memory,
            meta.is_throttled_memory,
            instruction.line,
            is_call,
            is_exit,
            _scale_kind(instruction.memory_space),
            site,
        )))
        run = []
    if run:
        steps.append((tuple(run), None))
    memo = block._trace_plan = (architecture, sites, (steps, _block_exit(block, cfg)))
    return memo


def generate_warp_trace(
    structure: ProgramStructure,
    kernel_name: str,
    workload: WorkloadSpec,
    architecture: GpuArchitecture,
    warp_id: int,
    num_warps: int,
) -> List[tuple]:
    """The records of one warp's dynamic instruction trace."""
    random = workload.rng_for_warp(warp_id).random
    ops: List[tuple] = []
    append_op = ops.append
    extend_ops = ops.extend
    executed_functions: Set[str] = set()
    sites, site_of = _site_table(structure)
    sector_bytes = architecture.memory.sector_bytes
    warp_size = architecture.warp_size
    max_trace_ops = workload.max_trace_ops
    memory_scale = workload.memory_latency_scale
    #: scale_kind -> base latency scale (memory transactions add on top).
    kind_scales = (
        1.0, memory_scale, workload.constant_latency_scale,
        workload.shared_latency_scale,
    )
    #: Per-call memos: line -> loop trips / branch probability, and site ->
    #: ``(scaled, transactions, stride, request_bytes, working_set,
    #: partition, base)``, the op's latency before jitter, its transactions
    #: slot, and for a throttled access this warp's address layout (zeros
    #: otherwise).
    line_trips: Dict[Optional[int], int] = {}
    line_probability: Dict[Optional[int], float] = {}
    site_facts: Dict[int, tuple] = {}
    #: Per-warp count of hierarchy-visible memory accesses, used to walk
    #: the warp through its working-set partition deterministically.
    memory_accesses = 0

    def dynamic_facts(step) -> tuple:
        """The per-warp facts of a dynamic step's op (see ``site_facts``)."""
        (_, _, base_latency, is_memory, throttled, line, _, _, scale_kind, _) = step
        transactions = workload.transactions(line) if is_memory else 0
        # Completion latency before jitter: the opcode's base latency times
        # its space's scale; uncoalesced accesses serialize transactions at
        # the memory pipe.
        scale = kind_scales[scale_kind]
        if scale_kind == _SCALE_MEMORY and transactions > 1:
            scale *= 1.0 + 0.15 * (transactions - 1)
        layout = (0, 0, 0, 0, 0)
        if throttled:
            # Each warp streams through its own partition of the working
            # set, wrapping at the end.
            stride = workload.access_stride(line, sector_bytes, warp_size)
            request_bytes = max(1, warp_size * stride)
            working_set = max(request_bytes, workload.working_set_bytes)
            partition = max(request_bytes, working_set // max(1, num_warps))
            layout = (
                stride, request_bytes, working_set, partition,
                (warp_id * partition) % working_set,
            )
        return (base_latency * scale, transactions if transactions >= 1 else 1) + layout

    def walk(function_name: str, depth: int) -> None:
        nonlocal memory_accesses
        if depth > 8:
            raise TraceError(f"call depth limit exceeded while tracing {kernel_name}")
        cfg = structure.function(function_name).cfg
        executed_functions.add(function_name)
        blocks = cfg.blocks
        block = cfg.entry
        back_edge_taken: Dict[int, int] = {}

        while True:
            if len(ops) >= max_trace_ops:
                return
            memo = block.__dict__.get("_trace_plan")
            if memo is None or memo[0] is not architecture or memo[1] is not sites:
                memo = _plan_block(block, cfg, function_name, architecture, sites, site_of)
            steps, exit_ = memo[2]
            for run, step in steps:
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
                record, static, _, _, _, line, is_call, is_exit, _, site = step
                if record is None:
                    facts = site_facts.get(site)
                    if facts is None:
                        facts = site_facts[site] = dynamic_facts(step)
                    (scaled, transactions, stride, request_bytes, working_set,
                     partition, base) = facts
                    address = 0
                    if stride:
                        # The address is a pure function of the access
                        # count — it consumes no randomness, so the flat
                        # model's traces stay bit-identical.
                        address = (
                            base + (memory_accesses * request_bytes) % partition
                        ) % working_set
                        memory_accesses += 1
                    # The jitter is ``Random.uniform(0.85, 1.25)``'s own
                    # formula, so the draws are bit-identical to it.
                    latency = int(scaled * (0.85 + (1.25 - 0.85) * random()))
                    if latency < 1:
                        latency = 1
                    record = static + (
                        0, latency, latency if latency < 30 else 30, transactions,
                        address, stride, site, sites,
                    )
                append_op(record)
                if is_call:
                    callee = workload.call_target(line)
                    if callee is not None and callee in structure.functions:
                        walk(callee, depth + 1)
                if is_exit:
                    return

            kind = exit_[0]
            if kind == _EXIT_GOTO:
                block = blocks[exit_[1]]
            elif kind == _EXIT_LOOP:
                _, header, fall_through, header_line, back_edge = exit_
                trips = line_trips.get(header_line)
                if trips is None:
                    trips = line_trips[header_line] = workload.trip_count(
                        header_line, warp_id
                    )
                taken = back_edge_taken.get(back_edge, 0)
                if taken + 1 < trips:
                    back_edge_taken[back_edge] = taken + 1
                    block = blocks[header]
                    continue
                back_edge_taken[back_edge] = 0
                if fall_through is None:
                    return
                block = blocks[fall_through]
            elif kind == _EXIT_BRANCH:
                _, target, fall_through, branch_line = exit_
                probability = line_probability.get(branch_line)
                if probability is None:
                    probability = line_probability[branch_line] = (
                        workload.branch_probability(branch_line)
                    )
                block = blocks[target if random() < probability else fall_through]
            else:
                return

    walk(kernel_name, depth=0)

    _charge_fetch_stalls(ops, executed_functions, structure, architecture)
    return ops


def _charge_fetch_stalls(
    records: List[tuple],
    executed_functions: Set[str],
    structure: ProgramStructure,
    architecture: GpuArchitecture,
) -> None:
    """Charge instruction-fetch stalls when the code footprint exceeds the i-cache.

    The footprint is the total code size of every function the warp executed.
    Pressure above 1.0 causes periodic fetch stalls whose frequency and size
    grow with the pressure — the signal the Function Split optimizer matches
    (Table 2: "Match instruction fetch stalls").  Each charged record is
    replaced by a copy that carries ``_F_FETCH`` and the stall in slot 10,
    since the record in the list may be shared.
    """
    footprint = sum(
        structure.function(name).function.code_size for name in executed_functions
    )
    pressure = footprint / architecture.instruction_cache_bytes
    if pressure <= 1.0 or not records:
        return
    period = max(6, int(48 / pressure))
    stall = max(4, int(8 * min(pressure, 4.0)))
    for index in range(period, len(records), period):
        record = records[index]
        records[index] = (record[0] | _F_FETCH,) + record[1:10] + (stall,) + record[11:]
