"""Kernel authoring DSL and the control-code "assembler" pass.

Real CUBINs are produced by ``nvcc``/``ptxas``; our synthetic workloads are
authored directly at the SASS level with :class:`KernelBuilder`.  The builder
offers:

* convenience emitters for the common opcodes (loads/stores in every address
  space, integer/fp32/fp64/SFU arithmetic, conversions, predicate setters,
  branches, barriers);
* labels and a ``loop(...)`` context manager that lays out loop bodies and
  back edges;
* an ``inlined(...)`` context manager that records DWARF-like inline ranges;
* source-line tracking (``at_line``) so every instruction carries the line
  mapping ``-lineinfo`` would provide;
* an assembler pass that assigns *control codes* — write/read barriers, wait
  masks and stall cycles — from the def-use structure of the instruction
  stream, mirroring what ptxas does.  Branches, calls and synchronization
  instructions wait on all outstanding barriers, which reproduces the
  Figure 3 situation where a ``BRA`` that never reads ``R0`` still waits on
  the barrier set by an earlier ``LDG``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cubin.binary import Cubin, Function, FunctionVisibility, InlineRange
from repro.isa.instruction import INSTRUCTION_SIZE, ControlCode, Instruction, MAX_STALL_CYCLES
from repro.isa.opcodes import lookup_opcode
from repro.isa.registers import (
    ALWAYS,
    ImmediateOperand,
    MemoryOperand,
    MemorySpace,
    Predicate,
    RegisterOperand,
    SpecialRegister,
)


def r(index: int) -> RegisterOperand:
    """Shorthand register constructor used by workload definitions."""
    return RegisterOperand(index)


def p(index: int, negated: bool = False) -> Predicate:
    """Shorthand predicate constructor."""
    return Predicate(index, negated)


def imm(value: float, is_double: bool = False) -> ImmediateOperand:
    """Shorthand immediate constructor."""
    return ImmediateOperand(float(value), is_double=is_double)


def mem(base: Union[int, RegisterOperand], offset: int = 0,
        space: MemorySpace = MemorySpace.GLOBAL) -> MemoryOperand:
    """Shorthand memory-operand constructor."""
    base_reg = base if isinstance(base, RegisterOperand) else RegisterOperand(base)
    return MemoryOperand(base=base_reg, offset=offset, space=space)


_SPACE_BY_LOAD = {
    "LDG": MemorySpace.GLOBAL,
    "LDL": MemorySpace.LOCAL,
    "LDS": MemorySpace.SHARED,
    "LDC": MemorySpace.CONSTANT,
    "LD": MemorySpace.GENERIC,
    "TEX": MemorySpace.TEXTURE,
}
_SPACE_BY_STORE = {
    "STG": MemorySpace.GLOBAL,
    "STL": MemorySpace.LOCAL,
    "STS": MemorySpace.SHARED,
    "ST": MemorySpace.GENERIC,
}


@dataclass
class _PendingBranch:
    """A branch emitted before its target label was defined."""

    position: int
    label: str


class KernelBuilder:
    """Builds one function (kernel or device function) instruction by instruction."""

    def __init__(
        self,
        name: str,
        visibility: FunctionVisibility = FunctionVisibility.GLOBAL,
        source_file: Optional[str] = None,
        registers_per_thread: Optional[int] = None,
        shared_memory_bytes: int = 0,
    ):
        self.name = name
        self.visibility = visibility
        self.source_file = source_file
        self.registers_per_thread = registers_per_thread
        self.shared_memory_bytes = shared_memory_bytes
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending_branches: List[_PendingBranch] = []
        self._current_line: Optional[int] = None
        self._inline_stack: List[Tuple[str, int, Optional[int]]] = []
        self._inline_ranges: List[InlineRange] = []

    # ------------------------------------------------------------------
    # Source mapping
    # ------------------------------------------------------------------
    def at_line(self, line: int) -> "KernelBuilder":
        """Set the source line attached to subsequently emitted instructions."""
        self._current_line = line
        return self

    @contextlib.contextmanager
    def inlined(self, callee: str, call_site_line: Optional[int] = None):
        """Record that instructions emitted inside came from an inlined callee."""
        start = self._next_offset()
        self._inline_stack.append((callee, start, call_site_line))
        try:
            yield self
        finally:
            callee_name, start_offset, site_line = self._inline_stack.pop()
            end = self._next_offset() - INSTRUCTION_SIZE
            if end >= start_offset:
                self._inline_ranges.append(
                    InlineRange(start_offset, end, callee_name, site_line)
                )

    # ------------------------------------------------------------------
    # Labels, branches, loops
    # ------------------------------------------------------------------
    def label(self, name: str) -> "KernelBuilder":
        """Define a label at the next instruction offset."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r} in {self.name}")
        self._labels[name] = self._next_offset()
        return self

    def bra(self, label: str, predicate: Predicate = ALWAYS) -> Instruction:
        """Emit a branch to ``label`` (which may be defined later)."""
        instruction = self.emit("BRA", predicate=predicate)
        if label in self._labels:
            self._instructions[-1] = replace(instruction, target=self._labels[label])
        else:
            self._pending_branches.append(_PendingBranch(len(self._instructions) - 1, label))
        return self._instructions[-1]

    @contextlib.contextmanager
    def loop(self, name: str, predicate: Optional[Predicate] = None):
        """Lay out a loop: a header label on entry, a back edge on exit.

        ``predicate`` guards the back edge (the typical ``@P0 BRA head``
        pattern); if omitted the back edge is unconditional and the loop must
        be exited by a branch inside the body.
        """
        head = f"{name}__head"
        self.label(head)
        try:
            yield self
        finally:
            self.bra(head, predicate=predicate or ALWAYS)

    # ------------------------------------------------------------------
    # Core emitter
    # ------------------------------------------------------------------
    def _next_offset(self) -> int:
        return len(self._instructions) * INSTRUCTION_SIZE

    def emit(
        self,
        opcode: str,
        dests: Sequence[object] = (),
        sources: Sequence[object] = (),
        modifiers: Sequence[str] = (),
        predicate: Predicate = ALWAYS,
        target: Optional[int] = None,
        line: Optional[int] = None,
    ) -> Instruction:
        """Emit one instruction; returns it (already appended)."""
        lookup_opcode(opcode)  # validate early
        instruction = Instruction(
            offset=self._next_offset(),
            opcode=opcode,
            modifiers=tuple(modifiers),
            predicate=predicate,
            dests=tuple(dests),
            sources=tuple(sources),
            target=target,
            line=line if line is not None else self._current_line,
            source_file=self.source_file,
            inline_stack=tuple(frame[0] for frame in self._inline_stack),
        )
        self._instructions.append(instruction)
        return instruction

    # ------------------------------------------------------------------
    # Convenience emitters
    # ------------------------------------------------------------------
    def s2r(self, dest: int, special: str, predicate: Predicate = ALWAYS) -> Instruction:
        return self.emit("S2R", [r(dest)], [SpecialRegister(special)], predicate=predicate)

    def mov(self, dest: int, source: object, predicate: Predicate = ALWAYS) -> Instruction:
        src = source if not isinstance(source, int) else r(source)
        return self.emit("MOV", [r(dest)], [src], predicate=predicate)

    def mov_imm(self, dest: int, value: float, predicate: Predicate = ALWAYS) -> Instruction:
        return self.emit("MOV32I", [r(dest)], [imm(value)], predicate=predicate)

    def _binary(self, opcode: str, dest: int, a: object, b: object,
                modifiers: Sequence[str] = (), predicate: Predicate = ALWAYS) -> Instruction:
        operands = [x if not isinstance(x, int) else r(x) for x in (a, b)]
        return self.emit(opcode, [r(dest)], operands, modifiers=modifiers, predicate=predicate)

    def _ternary(self, opcode: str, dest: int, a: object, b: object, c: object,
                 modifiers: Sequence[str] = (), predicate: Predicate = ALWAYS) -> Instruction:
        operands = [x if not isinstance(x, int) else r(x) for x in (a, b, c)]
        return self.emit(opcode, [r(dest)], operands, modifiers=modifiers, predicate=predicate)

    def iadd(self, dest: int, a: object, b: object, predicate: Predicate = ALWAYS) -> Instruction:
        return self._binary("IADD", dest, a, b, predicate=predicate)

    def imad(self, dest: int, a: object, b: object, c: object, wide: bool = False,
             predicate: Predicate = ALWAYS) -> Instruction:
        modifiers = ("WIDE",) if wide else ()
        return self._ternary("IMAD", dest, a, b, c, modifiers=modifiers, predicate=predicate)

    def idiv(self, dest: int, a: object, b: object, predicate: Predicate = ALWAYS) -> Instruction:
        return self._binary("IDIV", dest, a, b, predicate=predicate)

    def shl(self, dest: int, a: object, b: object, predicate: Predicate = ALWAYS) -> Instruction:
        return self._binary("SHL", dest, a, b, predicate=predicate)

    def lop3(self, dest: int, a: object, b: object, c: object,
             predicate: Predicate = ALWAYS) -> Instruction:
        return self._ternary("LOP3", dest, a, b, c, predicate=predicate)

    def fadd(self, dest: int, a: object, b: object, predicate: Predicate = ALWAYS) -> Instruction:
        return self._binary("FADD", dest, a, b, predicate=predicate)

    def fmul(self, dest: int, a: object, b: object, predicate: Predicate = ALWAYS) -> Instruction:
        return self._binary("FMUL", dest, a, b, predicate=predicate)

    def ffma(self, dest: int, a: object, b: object, c: object,
             predicate: Predicate = ALWAYS) -> Instruction:
        return self._ternary("FFMA", dest, a, b, c, predicate=predicate)

    def dadd(self, dest: int, a: object, b: object, predicate: Predicate = ALWAYS) -> Instruction:
        return self._binary("DADD", dest, a, b, predicate=predicate)

    def dmul(self, dest: int, a: object, b: object, predicate: Predicate = ALWAYS) -> Instruction:
        return self._binary("DMUL", dest, a, b, predicate=predicate)

    def dfma(self, dest: int, a: object, b: object, c: object,
             predicate: Predicate = ALWAYS) -> Instruction:
        return self._ternary("DFMA", dest, a, b, c, predicate=predicate)

    def f2f(self, dest: int, source: object, modifiers: Sequence[str] = ("F64", "F32"),
            predicate: Predicate = ALWAYS) -> Instruction:
        src = source if not isinstance(source, int) else r(source)
        return self.emit("F2F", [r(dest)], [src], modifiers=modifiers, predicate=predicate)

    def i2f(self, dest: int, source: object, predicate: Predicate = ALWAYS) -> Instruction:
        src = source if not isinstance(source, int) else r(source)
        return self.emit("I2F", [r(dest)], [src], predicate=predicate)

    def mufu(self, dest: int, source: object, function: str = "RCP",
             predicate: Predicate = ALWAYS) -> Instruction:
        src = source if not isinstance(source, int) else r(source)
        return self.emit("MUFU", [r(dest)], [src], modifiers=(function,), predicate=predicate)

    def isetp(self, dest_pred: int, a: object, b: object, condition: str = "GE",
              predicate: Predicate = ALWAYS) -> Instruction:
        operands = [x if not isinstance(x, int) else r(x) for x in (a, b)]
        return self.emit(
            "ISETP", [p(dest_pred)], operands, modifiers=(condition, "AND"), predicate=predicate
        )

    def fsetp(self, dest_pred: int, a: object, b: object, condition: str = "GT",
              predicate: Predicate = ALWAYS) -> Instruction:
        operands = [x if not isinstance(x, int) else r(x) for x in (a, b)]
        return self.emit(
            "FSETP", [p(dest_pred)], operands, modifiers=(condition, "AND"), predicate=predicate
        )

    def sel(self, dest: int, a: object, b: object, pred: Predicate,
            predicate: Predicate = ALWAYS) -> Instruction:
        operands = [x if not isinstance(x, int) else r(x) for x in (a, b)]
        return self.emit("SEL", [r(dest)], operands + [pred], predicate=predicate)

    # --- memory --------------------------------------------------------
    def _load(self, opcode: str, dest: int, addr: Union[int, MemoryOperand], offset: int,
              modifiers: Sequence[str], predicate: Predicate) -> Instruction:
        operand = addr if isinstance(addr, MemoryOperand) else mem(addr, offset, _SPACE_BY_LOAD[opcode])
        return self.emit(opcode, [r(dest)], [operand], modifiers=modifiers, predicate=predicate)

    def _store(self, opcode: str, addr: Union[int, MemoryOperand], source: int, offset: int,
               modifiers: Sequence[str], predicate: Predicate) -> Instruction:
        operand = addr if isinstance(addr, MemoryOperand) else mem(addr, offset, _SPACE_BY_STORE[opcode])
        return self.emit(opcode, [operand], [r(source)], modifiers=modifiers, predicate=predicate)

    def ldg(self, dest: int, addr: Union[int, MemoryOperand], offset: int = 0,
            modifiers: Sequence[str] = ("E", "32"), predicate: Predicate = ALWAYS) -> Instruction:
        return self._load("LDG", dest, addr, offset, modifiers, predicate)

    def stg(self, addr: Union[int, MemoryOperand], source: int, offset: int = 0,
            modifiers: Sequence[str] = ("E", "32"), predicate: Predicate = ALWAYS) -> Instruction:
        return self._store("STG", addr, source, offset, modifiers, predicate)

    def lds(self, dest: int, addr: Union[int, MemoryOperand], offset: int = 0,
            predicate: Predicate = ALWAYS) -> Instruction:
        return self._load("LDS", dest, addr, offset, ("32",), predicate)

    def sts(self, addr: Union[int, MemoryOperand], source: int, offset: int = 0,
            predicate: Predicate = ALWAYS) -> Instruction:
        return self._store("STS", addr, source, offset, ("32",), predicate)

    def ldl(self, dest: int, addr: Union[int, MemoryOperand], offset: int = 0,
            predicate: Predicate = ALWAYS) -> Instruction:
        return self._load("LDL", dest, addr, offset, ("32",), predicate)

    def stl(self, addr: Union[int, MemoryOperand], source: int, offset: int = 0,
            predicate: Predicate = ALWAYS) -> Instruction:
        return self._store("STL", addr, source, offset, ("32",), predicate)

    def ldc(self, dest: int, addr: Union[int, MemoryOperand], offset: int = 0,
            predicate: Predicate = ALWAYS) -> Instruction:
        return self._load("LDC", dest, addr, offset, ("32",), predicate)

    # --- synchronization / control --------------------------------------
    def bar_sync(self) -> Instruction:
        return self.emit("BAR", modifiers=("SYNC",))

    def membar(self) -> Instruction:
        return self.emit("MEMBAR", modifiers=("GPU",))

    def call(self, callee: str) -> Instruction:
        """Emit a call, rendered ``CAL SR_GRIDID`` with no target.

        ``callee`` is not recorded anywhere in the instruction.
        """
        return self.emit("CAL", sources=[SpecialRegister(f"SR_GRIDID")], target=None)

    def nop(self) -> Instruction:
        return self.emit("NOP")

    def exit(self) -> Instruction:
        return self.emit("EXIT")

    def ret(self) -> Instruction:
        return self.emit("RET")

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, assign_control: bool = True) -> Function:
        """Finalize the function: resolve labels, assign control codes."""
        self._resolve_branches()
        instructions = list(self._instructions)
        if assign_control:
            instructions = assign_control_codes(instructions)
        registers = self.registers_per_thread
        if registers is None:
            registers = _max_register_used(instructions) + 1
        return Function(
            name=self.name,
            visibility=self.visibility,
            instructions=instructions,
            registers_per_thread=registers,
            shared_memory_bytes=self.shared_memory_bytes,
            inline_ranges=self._inline_ranges,
            source_file=self.source_file,
        )

    def _resolve_branches(self) -> None:
        unresolved = []
        for pending in self._pending_branches:
            if pending.label not in self._labels:
                unresolved.append(pending.label)
                continue
            instruction = self._instructions[pending.position]
            self._instructions[pending.position] = replace(
                instruction, target=self._labels[pending.label]
            )
        if unresolved:
            raise ValueError(f"unresolved labels in {self.name}: {sorted(set(unresolved))}")
        self._pending_branches = []


def _max_register_used(instructions: Sequence[Instruction]) -> int:
    highest = 0
    for instruction in instructions:
        for reg in instruction.defined_registers | instruction.used_registers:
            if not reg.is_zero:
                highest = max(highest, reg.index)
    return highest


def assign_control_codes(instructions: Sequence[Instruction]) -> List[Instruction]:
    """Assign write/read barriers, wait masks and stall cycles.

    The pass walks the instruction stream in order and mimics ptxas:

    * a variable-latency instruction that writes registers allocates a
      *write barrier*; later readers (or writers) of those registers wait on
      it;
    * a variable-latency instruction that reads registers (stores, atomics)
      allocates a *read barrier*; later writers of those registers wait on it
      (the WAR dependency of Figure 5b);
    * branches, calls, returns, exits and synchronization instructions wait
      on every outstanding barrier (the Figure 3 pattern);
    * fixed-latency producers get ``stall_cycles`` covering their latency
      when the very next instruction consumes their result.
    """
    result: List[Instruction] = []
    # barrier index -> set of register indices guarded (write barriers)
    write_guard: Dict[int, Set[int]] = {}
    # barrier index -> set of register indices being read (read barriers)
    read_guard: Dict[int, Set[int]] = {}
    next_barrier = 0

    def allocate_barrier() -> int:
        nonlocal next_barrier
        for probe in range(6):
            candidate = (next_barrier + probe) % 6
            if candidate not in write_guard and candidate not in read_guard:
                next_barrier = (candidate + 1) % 6
                return candidate
        # All barriers busy: reuse round-robin (oldest semantics approximated).
        candidate = next_barrier
        next_barrier = (next_barrier + 1) % 6
        write_guard.pop(candidate, None)
        read_guard.pop(candidate, None)
        return candidate

    ordered = list(instructions)
    for position, instruction in enumerate(ordered):
        info = instruction.info
        used = {reg.index for reg in instruction.used_registers}
        defined = {reg.index for reg in instruction.defined_registers}

        wait_mask: Set[int] = set()
        if instruction.is_branch or instruction.is_exit or instruction.is_call or instruction.is_synchronization:
            wait_mask.update(write_guard)
            wait_mask.update(read_guard)
        else:
            for barrier, guarded in write_guard.items():
                if guarded & (used | defined):
                    wait_mask.add(barrier)
            for barrier, guarded in read_guard.items():
                if guarded & defined:
                    wait_mask.add(barrier)

        for barrier in wait_mask:
            write_guard.pop(barrier, None)
            read_guard.pop(barrier, None)

        write_barrier: Optional[int] = None
        read_barrier: Optional[int] = None
        if info.is_variable_latency:
            if defined:
                write_barrier = allocate_barrier()
                write_guard[write_barrier] = set(defined)
            if info.is_store or (info.is_memory and not defined):
                read_barrier = allocate_barrier()
                read_guard[read_barrier] = set(used)

        stall_cycles = 1
        if not info.is_variable_latency and defined and position + 1 < len(ordered):
            next_instruction = ordered[position + 1]
            next_uses = {reg.index for reg in next_instruction.used_registers}
            if next_uses & defined:
                stall_cycles = min(info.latency, MAX_STALL_CYCLES)

        control = ControlCode(
            stall_cycles=stall_cycles,
            yield_flag=True,
            write_barrier=write_barrier,
            read_barrier=read_barrier,
            wait_mask=frozenset(wait_mask),
        )
        result.append(instruction.with_control(control))

    return result


class CubinBuilder:
    """Assembles several functions into a :class:`Cubin`."""

    def __init__(self, arch_flag: str = "sm_70", module_name: str = "module.cubin"):
        self.arch_flag = arch_flag
        self.module_name = module_name
        self._functions: List[Function] = []

    def add_function(self, function: Function) -> "CubinBuilder":
        self._functions.append(function)
        return self

    def kernel(self, name: str, **kwargs) -> KernelBuilder:
        """Create a :class:`KernelBuilder` for a global function."""
        return KernelBuilder(name, visibility=FunctionVisibility.GLOBAL, **kwargs)

    def device_function(self, name: str, **kwargs) -> KernelBuilder:
        """Create a :class:`KernelBuilder` for a device function."""
        return KernelBuilder(name, visibility=FunctionVisibility.DEVICE, **kwargs)

    def build(self) -> Cubin:
        """The binary of the added functions; a repeated name raises
        :class:`ValueError`."""
        functions = {}
        for function in self._functions:
            if function.name in functions:
                raise ValueError(f"duplicate function {function.name!r} in {self.module_name}")
            functions[function.name] = function
        return Cubin(arch_flag=self.arch_flag, functions=functions, module_name=self.module_name)
