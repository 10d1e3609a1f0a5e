"""The typed lint rules of the static checker.

Each rule consumes a :class:`LintContext` (the function's structure, whose
CFG, dominators, loop nest, liveness, divergence taint, post-dominators and
reachable blocks are memoized on it, plus the target architecture and the
workload access spec when one exists) and emits
:class:`~repro.staticcheck.report.StaticDiagnostic` findings.  Rules never
mutate the context, and every rule is deterministic: the engine sorts the
combined findings by ``(function, offset, rule, message)``.

The divergence analysis feeding two of the rules is a forward taint over the
worklist solver: thread-varying special registers (``SR_TID.*``,
``SR_LANEID``) seed the taint, which then flows through register and
predicate definitions — a load whose *address* is thread-varying produces a
thread-varying *value*, and a predicate computed from a tainted register
makes every instruction it guards divergent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.arch.machine import GpuArchitecture
from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph
from repro.isa.instruction import Instruction
from repro.isa.registers import MemorySpace, SpecialRegister
from repro.sampling.workload import WorkloadSpec
from repro.staticcheck.dataflow import FORWARD, DataflowProblem, solve_dataflow
from repro.staticcheck.liveness import (
    defined_register_indices,
    may_write_only,
    used_register_indices,
)
from repro.staticcheck.report import StaticDiagnostic
from repro.structure.program import FunctionStructure

#: Special-register prefixes that vary between the threads of one warp.
#: (``SR_CTAID.*`` — the block index — is uniform within a block and so
#: cannot cause intra-warp divergence.)
THREAD_VARYING_PREFIXES = ("SR_TID", "SR_LANEID")

#: Shared-memory geometry of every modelled architecture.
SHARED_BANKS = 32
SHARED_BANK_BYTES = 4

#: Bytes one coalesced warp transaction covers (four 32-byte sectors).
TRANSACTION_BYTES = 128


# ----------------------------------------------------------------------
# Divergence taint
# ----------------------------------------------------------------------
def _reads_thread_index(instruction: Instruction) -> bool:
    return any(
        isinstance(source, SpecialRegister)
        and source.name.startswith(THREAD_VARYING_PREFIXES)
        for source in instruction.sources
    )


def _taint_step(instruction: Instruction, tainted: Set[object]) -> None:
    """Advance the taint set across one instruction, in place."""
    source_tainted = _reads_thread_index(instruction) or any(
        index in tainted for index in used_register_indices(instruction)
    )
    if not source_tainted:
        source_tainted = any(
            ("p", predicate.index) in tainted
            for predicate in instruction.used_predicates
            if not predicate.is_true_predicate
        )
    guard = instruction.predicate
    guard_tainted = (
        instruction.is_predicated and guard is not None and ("p", guard.index) in tainted
    )
    defs: List[object] = list(defined_register_indices(instruction))
    defs.extend(("p", predicate.index) for predicate in instruction.defined_predicates)
    if source_tainted or guard_tainted:
        tainted.update(defs)
    elif not may_write_only(instruction):
        # An unconditional write of a uniform value launders the register.
        # May-writes (predicated or unknown-opcode instructions) cannot
        # launder: the old, possibly tainted value may survive.
        tainted.difference_update(defs)


class TaintProblem(DataflowProblem):
    """Forward may-analysis of thread-varying registers and predicates."""

    direction = FORWARD

    def transfer(self, block: BasicBlock, tainted: FrozenSet[object]) -> FrozenSet[object]:
        current = set(tainted)
        for instruction in block.instructions:
            _taint_step(instruction, current)
        return frozenset(current)


@dataclass(frozen=True)
class DivergentBranch:
    """One branch whose direction may differ between threads of a warp."""

    block_index: int
    offset: int
    line: Optional[int]
    #: ``"predicate"`` (a guarded BRA) or ``"indirect"`` (a BRX through a
    #: thread-varying register).
    kind: str


def find_divergent_branches(cfg: ControlFlowGraph) -> List[DivergentBranch]:
    """Branches whose guard or target is thread-varying, via the taint."""
    solution = solve_dataflow(cfg, TaintProblem())
    found: List[DivergentBranch] = []
    for block in cfg.blocks:
        tainted = set(solution.value_in(block.index))
        for instruction in block.instructions:
            if instruction.is_branch:
                guard = instruction.predicate
                if (
                    instruction.is_predicated
                    and guard is not None
                    and ("p", guard.index) in tainted
                ):
                    found.append(
                        DivergentBranch(
                            block_index=block.index,
                            offset=instruction.offset,
                            line=instruction.line,
                            kind="predicate",
                        )
                    )
                elif instruction.opcode == "BRX" and any(
                    index in tainted for index in used_register_indices(instruction)
                ):
                    found.append(
                        DivergentBranch(
                            block_index=block.index,
                            offset=instruction.offset,
                            line=instruction.line,
                            kind="indirect",
                        )
                    )
            _taint_step(instruction, tainted)
    found.sort(key=lambda branch: branch.offset)
    return found


# ----------------------------------------------------------------------
# The rule context
# ----------------------------------------------------------------------
@dataclass
class LintContext:
    """Everything one function's rules may consult (read-only by contract)."""

    structure: FunctionStructure
    architecture: GpuArchitecture
    workload: Optional[WorkloadSpec] = None

    @property
    def function_name(self) -> str:
        return self.structure.name

    @property
    def cfg(self) -> ControlFlowGraph:
        return self.structure.cfg


class LintRule:
    """One typed rule: a stable name, a severity, and a ``run`` hook."""

    name: str = ""
    severity: str = "warning"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        raise NotImplementedError

    def diagnostic(
        self,
        context: LintContext,
        offset: int,
        message: str,
        line: Optional[int] = None,
        details: Optional[dict] = None,
    ) -> StaticDiagnostic:
        return StaticDiagnostic(
            rule=self.name,
            severity=self.severity,
            function=context.function_name,
            offset=offset,
            line=line,
            message=message,
            details=details or {},
        )


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class UnreachableBlockRule(LintRule):
    """Blocks no path from the entry reaches (dead code or a CFG defect)."""

    name = "unreachable-block"
    severity = "warning"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        findings = []
        for block in context.cfg.blocks:
            if block.index in context.structure.reachable or not block.instructions:
                continue
            first = block.instructions[0]
            findings.append(
                self.diagnostic(
                    context,
                    offset=block.start_offset,
                    line=first.line,
                    message=(
                        f"block {block.index} ({block.size} instructions) is "
                        "unreachable from the function entry"
                    ),
                    details={"block": block.index, "instructions": block.size},
                )
            )
        return findings


class DeadRegisterWriteRule(LintRule):
    """Unconditional register writes whose value is never read."""

    name = "dead-register-write"
    severity = "info"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        findings = []
        for write in context.structure.liveness.dead_writes:
            findings.append(
                self.diagnostic(
                    context,
                    offset=write.offset,
                    line=write.line,
                    message=f"R{write.register} is written but never read afterwards",
                    details={"register": write.register},
                )
            )
        return findings


class DivergentBranchRule(LintRule):
    """Branches steered by thread-varying data (taint from ``SR_TID``)."""

    name = "divergent-branch"
    severity = "info"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        findings = []
        for branch in context.structure.divergent_branches:
            what = (
                "indirect branch target is thread-varying"
                if branch.kind == "indirect"
                else "branch predicate is thread-varying"
            )
            findings.append(
                self.diagnostic(
                    context,
                    offset=branch.offset,
                    line=branch.line,
                    message=f"{what}; threads of a warp may diverge here",
                    details={"block": branch.block_index, "kind": branch.kind},
                )
            )
        return findings


class BarrierDivergenceRule(LintRule):
    """``BAR.SYNC`` under divergent control flow — a hang hazard.

    A barrier is hazardous when it is control-dependent on a divergent
    branch: some thread of a block can take a path that skips the barrier
    while its siblings wait forever.  The check is the classic structural
    one: a divergent branch block ``D`` dominating the barrier block ``B``
    which ``B`` does not post-dominate means ``B`` sits on only *some* of
    the paths out of ``D``.
    """

    name = "barrier-divergence"
    severity = "error"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        findings = []
        structure = context.structure
        if not structure.divergent_branches:
            return findings
        dominators = structure.dominator_tree
        for block in context.cfg.blocks:
            for instruction in block.instructions:
                if not instruction.is_synchronization or instruction.opcode != "BAR":
                    continue
                for branch in structure.divergent_branches:
                    if branch.block_index == block.index:
                        continue
                    if not dominators.dominates(branch.block_index, block.index):
                        continue
                    if block.index in structure.post_dominators[branch.block_index]:
                        continue
                    findings.append(
                        self.diagnostic(
                            context,
                            offset=instruction.offset,
                            line=instruction.line,
                            message=(
                                "barrier under divergent control flow: the "
                                f"divergent branch at +{branch.offset:#x} can "
                                "steer threads of one block around this BAR"
                            ),
                            details={
                                "barrier_block": block.index,
                                "branch_block": branch.block_index,
                                "branch_offset": branch.offset,
                            },
                        )
                    )
                    break  # one finding per barrier is enough
        return findings


class UncoalescedStrideRule(LintRule):
    """Global accesses whose per-thread stride fans one warp access out."""

    name = "uncoalesced-stride"
    severity = "warning"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        findings = []
        workload = context.workload
        if workload is None:
            return findings
        warp_size = context.architecture.warp_size
        for block in context.cfg.blocks:
            for instruction in block.instructions:
                if not (instruction.is_load or instruction.is_store):
                    continue
                if instruction.memory_space not in (MemorySpace.GLOBAL, MemorySpace.GENERIC):
                    continue
                stride = workload.access_stride(instruction.line, warp_size=warp_size)
                transactions = -(-stride * warp_size // TRANSACTION_BYTES)
                transactions = max(1, min(warp_size, transactions))
                if transactions <= 1:
                    continue
                findings.append(
                    self.diagnostic(
                        context,
                        offset=instruction.offset,
                        line=instruction.line,
                        message=(
                            f"{instruction.opcode} with a {stride}-byte per-thread "
                            f"stride costs ~{transactions} transactions per warp "
                            "access (1 when coalesced)"
                        ),
                        details={
                            "stride_bytes": stride,
                            "transactions_per_access": transactions,
                        },
                    )
                )
        return findings


class BankConflictRule(LintRule):
    """Shared-memory accesses whose stride serializes over the banks."""

    name = "bank-conflict"
    severity = "warning"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        findings = []
        workload = context.workload
        if workload is None:
            return findings
        warp_size = context.architecture.warp_size
        scale = workload.shared_latency_scale
        for block in context.cfg.blocks:
            for instruction in block.instructions:
                if not (instruction.is_load or instruction.is_store):
                    continue
                if instruction.memory_space is not MemorySpace.SHARED:
                    continue
                stride = workload.access_stride(instruction.line, warp_size=warp_size)
                banks_hit = {
                    (thread * stride // SHARED_BANK_BYTES) % SHARED_BANKS
                    for thread in range(warp_size)
                }
                ways = -(-warp_size // len(banks_hit))
                if ways <= 1 and scale <= 1.0:
                    continue
                evidence: dict = {"stride_bytes": stride, "conflict_ways": ways}
                if scale > 1.0:
                    evidence["shared_latency_scale"] = scale
                if ways > 1:
                    message = (
                        f"{instruction.opcode} with a {stride}-byte per-thread "
                        f"stride maps {ways} threads onto each shared-memory bank"
                    )
                else:
                    message = (
                        f"{instruction.opcode} runs under a shared-memory latency "
                        f"scale of {scale}, consistent with bank conflicts"
                    )
                findings.append(
                    self.diagnostic(
                        context,
                        offset=instruction.offset,
                        line=instruction.line,
                        message=message,
                        details=evidence,
                    )
                )
        return findings


class UnknownOpcodeRule(LintRule):
    """Instructions whose opcode is absent from the catalog.

    These appear when a binary was ingested from a real disassembly
    listing (``repro.sass``): the instruction is analyzed with
    conservative unknown-op semantics (declared registers extracted,
    writes treated as may-writes, pessimistic latency), which keeps the
    other analyses sound but weakens their findings around it — so the
    weak spot is surfaced rather than silently tolerated.
    """

    name = "unknown-opcode"
    severity = "warning"

    def run(self, context: LintContext) -> List[StaticDiagnostic]:
        findings = []
        for block in context.cfg.blocks:
            for instruction in block.instructions:
                if not instruction.is_unknown_op:
                    continue
                findings.append(
                    self.diagnostic(
                        context,
                        offset=instruction.offset,
                        line=instruction.line,
                        message=(
                            f"opcode {instruction.opcode} is not in the catalog; "
                            "analyzed with conservative unknown-op semantics"
                        ),
                        details={"opcode": instruction.full_opcode},
                    )
                )
        return findings


#: The rule set the engine runs, in a stable order.
DEFAULT_RULES: Tuple[LintRule, ...] = (
    UnreachableBlockRule(),
    DeadRegisterWriteRule(),
    DivergentBranchRule(),
    BarrierDivergenceRule(),
    UncoalescedStrideRule(),
    BankConflictRule(),
    UnknownOpcodeRule(),
)
