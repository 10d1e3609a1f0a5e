#!/usr/bin/env python
"""Lockstep linter for the two simulator cores.

``repro/sampling/vector.py`` (the packed-array core every production path
runs) and ``repro/sampling/simulator.py`` (the object core, kept as the
readable reference) implement the same scheduling semantics twice, and the
backend-equivalence tests pin their *outputs* bit-for-bit.  This
tool pins their *sources*: it AST-parses both files and fails when the
structural invariants that keep the cores honest drift apart, so a patch
that teaches one core a new stall reason (or quietly mutates state on the
sampler's observation path) fails CI before any simulation runs.

Checked invariants:

1. **Stall-reason coverage** — both modules must reference exactly the same
   set of ``StallReason`` members (aliases like ``EXEC_DEP =
   StallReason.EXECUTION_DEPENDENCY`` count as references).
2. **Flag coverage** — every ``_F_*`` bit the vector core defines must be
   consulted by both ``_pack_warp`` (the encoder) and its ``check`` routine;
   an encoded-but-never-checked flag is dead weight, a checked-but-never-
   encoded flag can never fire.
3. **Observation purity** — inside each core's ``check`` routine, every
   state mutation (attribute/subscript stores, writes to ``nonlocal``
   names, mutating method calls such as ``heappop``/``.add``) must be
   guarded by ``commit`` or delegate via a ``commit=commit`` keyword, so
   the PC sampler's ``commit=False`` probes stay observation-neutral.
4. **Sampler probes** — each core's ``record_sample`` must call ``check``
   with an explicit ``commit=False``.

Usage::

    python tools/lint_core_lockstep.py            # lint the in-tree cores
    python tools/lint_core_lockstep.py A.py B.py  # lint an explicit pair
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIMULATOR = REPO_ROOT / "src" / "repro" / "sampling" / "simulator.py"
DEFAULT_VECTOR = REPO_ROOT / "src" / "repro" / "sampling" / "vector.py"

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "heappop",
        "heappush",
        "insert",
        "pop",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


@dataclass
class CoreSummary:
    """Everything the comparisons need from one core module."""

    path: Path
    #: ``StallReason`` member names referenced anywhere in the module.
    stall_reasons: Set[str] = field(default_factory=set)
    #: ``_F_*`` names referenced per function of interest (and defined at
    #: module level, under key ``"<module>"``).
    flags: Dict[str, Set[str]] = field(default_factory=dict)
    #: Human-readable purity violations found in ``check``.
    purity_violations: List[str] = field(default_factory=list)
    #: Whether ``record_sample`` probes ``check(..., commit=False)``.
    sampler_probes_without_commit: bool = False
    has_check: bool = False
    has_record_sample: bool = False


def _is_commit_guard(test: ast.expr) -> bool:
    """Whether an ``if`` test gates its body on ``commit`` being truthy."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return False
    return any(
        isinstance(node, ast.Name) and node.id == "commit"
        for node in ast.walk(test)
    )


def _passes_commit_through(node: ast.Call) -> bool:
    """Whether a call forwards the caller's ``commit`` flag verbatim."""
    return any(
        keyword.arg == "commit"
        and isinstance(keyword.value, ast.Name)
        and keyword.value.id == "commit"
        for keyword in node.keywords
    )


class _PurityChecker(ast.NodeVisitor):
    """Finds state mutations on the non-commit path of a ``check`` routine."""

    def __init__(self, function: ast.FunctionDef) -> None:
        self.violations: List[str] = []
        self._guard_depth = 0
        self._nonlocals: Set[str] = {
            name
            for statement in ast.walk(function)
            if isinstance(statement, ast.Nonlocal)
            for name in statement.names
        }
        for statement in function.body:
            self.visit(statement)

    def _flag(self, node: ast.AST, what: str) -> None:
        if self._guard_depth == 0:
            self.violations.append(f"line {node.lineno}: {what}")

    def visit_If(self, node: ast.If) -> None:
        guarded = _is_commit_guard(node.test)
        if guarded:
            self._guard_depth += 1
        for statement in node.body:
            self.visit(statement)
        if guarded:
            self._guard_depth -= 1
        for statement in node.orelse:
            self.visit(statement)

    def _check_store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._flag(target, f"unguarded store to {ast.unparse(target)}")
        elif isinstance(target, ast.Name) and target.id in self._nonlocals:
            self._flag(target, f"unguarded write to nonlocal {target.id!r}")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and not _passes_commit_through(node)
        ):
            self._flag(node, f"unguarded mutating call {ast.unparse(node)}")
        self.generic_visit(node)


def _find_function(tree: ast.AST, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _flag_refs(node: ast.AST) -> Set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and child.id.startswith("_F_")
    }


def _probes_without_commit(record_sample: ast.FunctionDef) -> bool:
    for node in ast.walk(record_sample):
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Name) and node.func.id == "check"):
            continue
        for keyword in node.keywords:
            if keyword.arg == "commit" and isinstance(
                keyword.value, ast.Constant
            ):
                if keyword.value.value is False:
                    return True
    return False


def summarize_core(path: Path) -> CoreSummary:
    """Parse one core module and collect the lockstep-relevant facts."""
    tree = ast.parse(path.read_text(), filename=str(path))
    summary = CoreSummary(path=path)

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "StallReason"
        ):
            summary.stall_reasons.add(node.attr)

    summary.flags["<module>"] = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("_F_")
    }
    for name in ("_pack_warp", "check", "issue"):
        function = _find_function(tree, name)
        if function is not None:
            summary.flags[name] = _flag_refs(function)

    check = _find_function(tree, "check")
    if check is not None:
        summary.has_check = True
        summary.purity_violations = _PurityChecker(check).violations

    record_sample = _find_function(tree, "record_sample")
    if record_sample is not None:
        summary.has_record_sample = True
        summary.sampler_probes_without_commit = _probes_without_commit(
            record_sample
        )

    return summary


def compare_cores(simulator: CoreSummary, vector: CoreSummary) -> List[str]:
    """All lockstep violations between the two summaries."""
    problems: List[str] = []

    for summary in (simulator, vector):
        if not summary.has_check:
            problems.append(f"{summary.path}: no check() routine found")
        if not summary.has_record_sample:
            problems.append(f"{summary.path}: no record_sample() routine found")

    only_simulator = simulator.stall_reasons - vector.stall_reasons
    only_vector = vector.stall_reasons - simulator.stall_reasons
    if only_simulator:
        problems.append(
            f"stall reasons only in {simulator.path.name}: "
            f"{sorted(only_simulator)}"
        )
    if only_vector:
        problems.append(
            f"stall reasons only in {vector.path.name}: {sorted(only_vector)}"
        )

    defined_flags = vector.flags.get("<module>", set())
    if defined_flags:
        encoded = vector.flags.get("_pack_warp")
        if encoded is None:
            problems.append(f"{vector.path}: no _pack_warp() to encode _F_* flags")
        else:
            never_encoded = defined_flags - encoded
            if never_encoded:
                problems.append(
                    f"{vector.path.name}: _pack_warp() never encodes "
                    f"{sorted(never_encoded)}"
                )
        consumed = vector.flags.get("check", set()) | vector.flags.get("issue", set())
        never_consumed = defined_flags - consumed
        if never_consumed:
            problems.append(
                f"{vector.path.name}: neither check() nor issue() consults "
                f"{sorted(never_consumed)}"
            )

    for summary in (simulator, vector):
        for violation in summary.purity_violations:
            problems.append(
                f"{summary.path.name}: check() mutates state outside a "
                f"commit guard — {violation}"
            )
        if summary.has_record_sample and not summary.sampler_probes_without_commit:
            problems.append(
                f"{summary.path.name}: record_sample() never probes "
                "check(..., commit=False); sampling would perturb timing"
            )

    return problems


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if len(args) == 2:
        simulator_path, vector_path = Path(args[0]), Path(args[1])
    elif not args:
        simulator_path, vector_path = DEFAULT_SIMULATOR, DEFAULT_VECTOR
    else:
        print(
            "usage: lint_core_lockstep.py [SIMULATOR.py VECTOR.py]",
            file=sys.stderr,
        )
        return 2

    summaries = []
    for path in (simulator_path, vector_path):
        try:
            summaries.append(summarize_core(path))
        except OSError as exc:
            print(
                f"lockstep lint: cannot read core module {path}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
        except SyntaxError as exc:
            print(
                f"lockstep lint: cannot parse core module {path}: {exc}",
                file=sys.stderr,
            )
            return 2
    problems = compare_cores(*summaries)
    if problems:
        print(f"lockstep lint: {len(problems)} problem(s) found:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"lockstep lint: {simulator_path.name} and {vector_path.name} agree "
        "(stall reasons, flag coverage, observation purity, sampler probes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
