"""Operand and register model for the SASS-like ISA.

GPA's backward slicing (Section 4 of the paper) tracks def-use chains over
three kinds of state:

* regular 32-bit registers ``R0``-``R254`` (``R255``/``RZ`` always reads 0),
* predicate registers ``P0``-``P6`` used as true (``@P0``) or false
  (``@!P0``) guards, and
* six *virtual barrier registers* ``B0``-``B5`` that model the write/read
  barrier indices and wait masks in each instruction's control code.

Memory operands are also modelled, annotated with their address space,
because the blamer classifies memory dependencies into local, constant and
global dependencies (Figure 5a) and the optimizers distinguish spaces (e.g.
the Register Reuse optimizer matches *local* memory stalls that indicate
register spilling).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

#: Index of the architectural zero register ``RZ``.
ZERO_REGISTER_INDEX = 255

#: Number of general-purpose registers addressable per thread (R0-R254).
MAX_REGISTER_INDEX = 254

#: Number of predicate registers (P0-P6).  P7 is the constant-true ``PT``.
MAX_PREDICATE_INDEX = 6

#: Index used for the constant-true predicate ``PT``.
TRUE_PREDICATE_INDEX = 7

#: Number of virtual barrier registers (B0-B5).
NUM_BARRIERS = 6

#: Index of the uniform-datapath zero register ``URZ`` (Turing+).
UNIFORM_ZERO_REGISTER_INDEX = 63


class MemorySpace(enum.Enum):
    """Address spaces distinguished by the blamer and the optimizers."""

    GLOBAL = "global"
    LOCAL = "local"
    SHARED = "shared"
    CONSTANT = "constant"
    TEXTURE = "texture"
    GENERIC = "generic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class RegisterOperand:
    """A general-purpose 32-bit register ``R<index>``.

    A 64-bit value (e.g. a global-memory address) occupies a register *pair*;
    the pair is represented as two consecutive :class:`RegisterOperand`
    instances, mirroring how ``LDG R0, [R2]`` consumes both ``R2`` and ``R3``
    in Table 1 of the paper.
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index <= ZERO_REGISTER_INDEX:
            raise ValueError(f"register index out of range: {self.index}")

    @property
    def is_zero(self) -> bool:
        """Whether this is the hard-wired zero register ``RZ``."""
        return self.index == ZERO_REGISTER_INDEX

    def pair(self) -> Tuple["RegisterOperand", "RegisterOperand"]:
        """Return the 64-bit register pair starting at this register."""
        if self.is_zero:
            return (self, self)
        return (self, RegisterOperand(self.index + 1))

    def __str__(self) -> str:
        return "RZ" if self.is_zero else f"R{self.index}"


@dataclass(frozen=True, order=True)
class Predicate:
    """A predicate register reference, possibly negated.

    ``Predicate(0, negated=False)`` renders as ``P0`` (a *true* condition)
    and ``Predicate(0, negated=True)`` renders as ``!P0`` (a *false*
    condition).  The constant-true predicate ``PT`` has index 7 and is never
    negated in practice.
    """

    index: int
    negated: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.index <= TRUE_PREDICATE_INDEX:
            raise ValueError(f"predicate index out of range: {self.index}")

    @property
    def is_true_predicate(self) -> bool:
        """Whether this is the always-true predicate ``PT``."""
        return self.index == TRUE_PREDICATE_INDEX and not self.negated

    def complement(self) -> "Predicate":
        """The opposite condition on the same predicate register."""
        return Predicate(self.index, not self.negated)

    def __str__(self) -> str:
        name = "PT" if self.index == TRUE_PREDICATE_INDEX else f"P{self.index}"
        return f"!{name}" if self.negated else name


#: The always-true predicate used by unpredicated instructions.
ALWAYS = Predicate(TRUE_PREDICATE_INDEX, negated=False)


@dataclass(frozen=True, order=True)
class BarrierRegister:
    """One of the six virtual barrier registers ``B0``-``B5``.

    The paper (Section 4, "Virtual barrier registers") treats a write/read
    barrier index association as a *def* of a barrier register and a wait
    mask as a *use*, so that dependencies carried through control codes are
    discovered by the same def-use machinery as regular registers.
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_BARRIERS:
            raise ValueError(f"barrier index out of range: {self.index}")

    def __str__(self) -> str:
        return f"B{self.index}"


@dataclass(frozen=True, order=True)
class UniformRegister:
    """A uniform-datapath register ``UR<index>`` (Turing and later).

    Uniform registers hold warp-invariant values computed on the scalar
    datapath; ``UR63``/``URZ`` always reads 0.  They are disjoint from the
    per-thread general-purpose registers, so they do not participate in the
    GPR liveness/pressure analyses — the frontend carries them so real-SASS
    operands survive round trips, nothing more.
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index <= UNIFORM_ZERO_REGISTER_INDEX:
            raise ValueError(f"uniform register index out of range: {self.index}")

    @property
    def is_zero(self) -> bool:
        """Whether this is the hard-wired zero register ``URZ``."""
        return self.index == UNIFORM_ZERO_REGISTER_INDEX

    def __str__(self) -> str:
        return "URZ" if self.is_zero else f"UR{self.index}"


@dataclass(frozen=True, order=True)
class UniformPredicate:
    """A uniform predicate register ``UP<index>`` (Turing and later).

    ``UP7``/``UPT`` is the constant-true uniform predicate.  Like
    :class:`UniformRegister`, these are carried for fidelity only and are
    invisible to the per-thread predicate analyses.
    """

    index: int
    negated: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.index <= TRUE_PREDICATE_INDEX:
            raise ValueError(f"uniform predicate index out of range: {self.index}")

    @property
    def is_true_predicate(self) -> bool:
        return self.index == TRUE_PREDICATE_INDEX and not self.negated

    def __str__(self) -> str:
        name = "UPT" if self.index == TRUE_PREDICATE_INDEX else f"UP{self.index}"
        return f"!{name}" if self.negated else name


@dataclass(frozen=True, order=True)
class ConstantOperand:
    """A constant-bank operand ``c[bank][offset]``.

    Real SASS reads kernel parameters and driver state through constant
    banks (``c[0x0][0x160]`` is typically the first kernel argument on
    Volta).  Constant reads contribute no general-purpose register uses.
    """

    bank: int
    offset: int

    def __str__(self) -> str:
        return f"c[{self.bank:#x}][{self.offset:#x}]"


@dataclass(frozen=True)
class ImmediateOperand:
    """A literal constant operand.

    ``is_double`` marks 64-bit floating point literals such as the ``2.0``
    constant in the hotspot example (Listing 1), which forces the compiler to
    emit F2F/F64 conversion instructions — the pattern the Strength Reduction
    optimizer looks for.
    """

    value: float
    is_double: bool = False

    def __str__(self) -> str:
        if isinstance(self.value, float) and not self.value.is_integer():
            return f"{self.value}"
        return f"{int(self.value):#x}" if abs(self.value) > 9 else f"{int(self.value)}"


@dataclass(frozen=True)
class SpecialRegister:
    """A read-only special register such as ``SR_TID.X`` or ``SR_CTAID.X``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MemoryOperand:
    """A memory reference ``[Rb + offset]`` in a particular address space.

    ``base`` is the first register of the address.  For 64-bit address spaces
    (global, local, generic) the address occupies the register pair
    ``(base, base + 1)``; shared and constant memory use 32-bit addresses.
    Turing+ SASS may add a uniform register to the address
    (``[R2.64+UR4+0x10]``); the uniform term is warp-invariant and does not
    contribute a per-thread register use.
    """

    base: RegisterOperand
    offset: int = 0
    space: MemorySpace = MemorySpace.GLOBAL
    uniform_base: Optional[UniformRegister] = None

    def address_registers(self) -> Tuple[RegisterOperand, ...]:
        """Registers read to form the address."""
        if self.base.is_zero:
            return ()
        if self.space in (MemorySpace.GLOBAL, MemorySpace.LOCAL, MemorySpace.GENERIC):
            return self.base.pair()
        return (self.base,)

    def __str__(self) -> str:
        inner = str(self.base)
        if self.uniform_base is not None:
            inner += f"+{self.uniform_base}"
        if self.offset:
            inner += f"+{self.offset:#x}"
        return f"[{inner}]"


Operand = object  # documented union: RegisterOperand | Predicate | ImmediateOperand | ...


def register(index: int) -> RegisterOperand:
    """Convenience constructor for ``R<index>``."""
    return RegisterOperand(index)


def predicate(index: int, negated: bool = False) -> Predicate:
    """Convenience constructor for ``P<index>`` / ``!P<index>``."""
    return Predicate(index, negated)


def barrier(index: int) -> BarrierRegister:
    """Convenience constructor for ``B<index>``."""
    return BarrierRegister(index)
