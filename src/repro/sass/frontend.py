"""Listing-level frontend: real disassembly text → :class:`~repro.cubin.binary.Cubin`.

``ingest_listing`` accepts the two flavours of disassembly NVIDIA's tools
produce, plus a bare fallback:

* **cuobjdump** (``cuobjdump -sass``): ``code for sm_70`` headers,
  ``Function : <name>`` markers, ``.headerflags`` directives, instruction
  lines with ``/*offset*/`` comments, trailing hex-encoding comments and
  hex-only continuation lines;
* **nvdisasm**: ``.section .text.<name>`` function sections,
  ``.sectioninfo @"SHI_REGISTERS=N"`` resource notes, ``.global``
  directives, ``.L_x_<n>:`` local labels and backtick branch targets
  (`` BRA `(.L_x_3) ``);
* **bare**: label/instruction lines with no tool framing (also what
  :attr:`~repro.cubin.binary.Function.source_listing` round-trips store).

The dialect only governs how function boundaries and metadata are
recognised; instruction lines are decoded uniformly by
:mod:`repro.sass.decoder` with its never-crash degradation rules.  The
result is a ``Cubin`` the existing CFG recovery and static checker consume
unchanged, plus the :class:`~repro.sass.report.IngestReport` ledger.

Offsets come from the listing's ``/*offset*/`` comments when present (both
tools restart them at 0 per function) and otherwise advance by the 16-byte
instruction size.  Each instruction's ``line`` is stamped with its 1-based
listing line — that is what workload specs and diagnostics key on — and its
``source_file`` with the listing name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cubin.binary import Cubin, Function, FunctionVisibility
from repro.isa.instruction import INSTRUCTION_SIZE
from repro.sass.decoder import LABEL_RE, DecodedInstruction, decode_instruction, strip_line
from repro.sass.report import FunctionIngest, IngestReport

_CODE_FOR_RE = re.compile(r"^\s*code for (?P<arch>sm_\d+)\s*$")
_FUNCTION_RE = re.compile(r"^\s*Function\s*:\s*(?P<name>\S+)\s*$")
_SECTION_RE = re.compile(r"^\s*\.section\s+\.text\.(?P<name>[^,\s]+)")
_SECTIONINFO_RE = re.compile(r"SHI_REGISTERS\s*=\s*(?P<count>\d+)")
_HEADERFLAGS_SM_RE = re.compile(r"EF_CUDA_SM(?P<sm>\d+)")

#: Tool framing around cuobjdump output that carries no code.
_NOISE_PREFIXES = (
    "Fatbin elf code", "Fatbin ptx code", "arch =", "code version",
    "producer", "host =", "compile_size", "compressed", "identifier",
    "=====",
)


def detect_dialect(text: str) -> str:
    """Best-effort dialect sniff: ``cuobjdump``, ``nvdisasm`` or ``bare``."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if _CODE_FOR_RE.match(stripped) or _FUNCTION_RE.match(stripped):
            return "cuobjdump"
        if stripped.startswith((".section", ".sectioninfo", ".elftype")):
            return "nvdisasm"
    return "bare"


def _arch_from_sm(sm: str) -> str:
    return f"sm_{sm}"


@dataclass
class _PendingFunction:
    """A function while its listing lines are being collected."""

    name: str
    visibility: FunctionVisibility = FunctionVisibility.GLOBAL
    registers_per_thread: int = 32
    decoded: List[DecodedInstruction] = field(default_factory=list)
    labels: Dict[str, Optional[int]] = field(default_factory=dict)
    pending_labels: List[str] = field(default_factory=list)
    raw_lines: List[str] = field(default_factory=list)
    next_offset: int = 0
    total: int = 0

    def place_labels(self, offset: int) -> None:
        for label in self.pending_labels:
            self.labels.setdefault(label, offset)
        self.pending_labels = []

    def add_decoded(self, decoded: DecodedInstruction) -> None:
        self.place_labels(decoded.instruction.offset)
        self.decoded.append(decoded)
        self.next_offset = decoded.instruction.offset + INSTRUCTION_SIZE


def _finalize(pending: _PendingFunction, source_name: str, report: IngestReport) -> Function:
    """Resolve labels, build the ingest ledger and the ``Function``."""
    ingest = FunctionIngest(name=pending.name, total=pending.total)
    instructions = []
    for decoded in pending.decoded:
        instruction = decoded.instruction
        if not decoded.unknown_opcode:
            ingest.decoded += 1
        else:
            ingest.unknown_opcodes.append(instruction.opcode)
        ingest.unknown_modifiers.extend(decoded.unknown_modifiers)
        ingest.operand_failures.extend(decoded.operand_failures)
        if decoded.symbolic_target is not None:
            target = pending.labels.get(decoded.symbolic_target)
            if target is None:
                ingest.unresolved_targets.append(decoded.symbolic_target)
                report.warnings.append(
                    f"{source_name}:{instruction.line}: unresolved branch target "
                    f"{decoded.symbolic_target!r} in {pending.name}"
                )
            else:
                instruction = replace(instruction, target=target)
        instructions.append(instruction)
    report.functions.append(ingest)
    return Function(
        name=pending.name,
        visibility=pending.visibility,
        instructions=instructions,
        registers_per_thread=pending.registers_per_thread,
        source_file=source_name,
        source_listing="\n".join(pending.raw_lines) + "\n" if pending.raw_lines else None,
    )


def ingest_listing(
    text: str,
    source_name: str = "<sass>",
    default_arch: str = "sm_70",
) -> Tuple[Cubin, IngestReport]:
    """Lower one disassembly listing into a binary plus its ingest report.

    Raises :class:`ValueError` only when the listing contains no
    instructions at all; everything else degrades per the decoder rules.
    A fat binary's dump repeats each function under every ``code for
    sm_XX`` header: the first definition of a name is kept, each later one
    is skipped with a warning, and once a function is kept a later
    architecture line cannot relabel the binary (it warns instead).  The
    report lists only the functions the binary holds.
    """
    dialect = detect_dialect(text)
    report = IngestReport(source_name=source_name, dialect=dialect, arch_flag=default_arch)
    functions: Dict[str, Function] = {}

    current: Optional[_PendingFunction] = None
    implicit_counter = 0

    def set_arch(arch_flag: str, lineno: int) -> None:
        if functions and arch_flag != report.arch_flag:
            report.warnings.append(
                f"{source_name}:{lineno}: ignored {arch_flag}: the binary already "
                f"holds {report.arch_flag} functions"
            )
        else:
            report.arch_flag = arch_flag

    def close_current() -> None:
        nonlocal current
        if current is not None:
            if current.name in functions:
                report.warnings.append(
                    f"{source_name}: skipped a repeated definition of function "
                    f"{current.name!r}; the first is kept"
                )
            elif current.decoded:
                functions[current.name] = _finalize(current, source_name, report)
            elif current.total == 0:
                report.warnings.append(
                    f"{source_name}: function {current.name!r} has no instructions"
                )
            current = None

    def open_function(name: str) -> None:
        nonlocal current
        close_current()
        current = _PendingFunction(name=name)

    def ensure_function() -> _PendingFunction:
        nonlocal current, implicit_counter
        if current is None:
            implicit_counter += 1
            name = "kernel" if implicit_counter == 1 else f"kernel_{implicit_counter}"
            current = _PendingFunction(name=name)
        return current

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.rstrip()
        bare = stripped.strip()
        if not bare or bare.startswith(("//", "#")):
            continue

        code_for = _CODE_FOR_RE.match(bare)
        if code_for:
            close_current()
            set_arch(_arch_from_sm(code_for.group("arch")[3:]), lineno)
            continue
        function_marker = _FUNCTION_RE.match(bare)
        if function_marker:
            open_function(function_marker.group("name"))
            current.raw_lines.append(bare)
            continue
        section_marker = _SECTION_RE.match(bare)
        if section_marker:
            open_function(section_marker.group("name"))
            current.raw_lines.append(bare)
            continue
        if bare.startswith(".sectioninfo"):
            info = _SECTIONINFO_RE.search(bare)
            if info and current is not None:
                current.registers_per_thread = int(info.group("count"))
                current.raw_lines.append(bare)
            continue
        if bare.startswith(".headerflags"):
            sm = _HEADERFLAGS_SM_RE.search(bare)
            if sm:
                set_arch(_arch_from_sm(sm.group("sm")), lineno)
            continue
        if bare.startswith("."):
            label_match = LABEL_RE.match(bare)
            if label_match and not label_match.group("rest").strip():
                # ``.L_x_0:`` / ``.text.<name>:`` label lines.
                label = label_match.group("label")
                if not label.startswith(".text."):
                    function = ensure_function()
                    function.pending_labels.append(label)
                    function.raw_lines.append(f"{label}:")
                continue
            # Other assembler directives (.align/.type/.size/.other/...).
            continue
        if any(bare.startswith(prefix) for prefix in _NOISE_PREFIXES):
            continue

        line = strip_line(stripped)
        if line.empty:
            continue
        text_body = line.text
        label_match = LABEL_RE.match(text_body)
        if label_match:
            label = label_match.group("label")
            rest = label_match.group("rest").strip()
            if not (current is not None and label == current.name):
                function = ensure_function()
                function.pending_labels.append(label)
                function.raw_lines.append(f"{label}:")
            if not rest:
                continue
            text_body = rest

        function = ensure_function()
        offset = line.offset if line.offset is not None else function.next_offset
        function.total += 1
        decoded = decode_instruction(
            text_body, offset=offset, listing_line=lineno, source_name=source_name
        )
        if decoded is None:
            report.warnings.append(
                f"{source_name}:{lineno}: unrecognized instruction text {text_body!r}"
            )
            function.next_offset = offset + INSTRUCTION_SIZE
            continue
        function.raw_lines.append(f"/*{offset:04x}*/ {text_body} ;")
        function.add_decoded(decoded)

    close_current()

    if not functions:
        raise ValueError(f"{source_name}: no instructions found in listing")
    return Cubin(arch_flag=report.arch_flag, functions=functions, module_name=source_name), report


def ingest_file(path, default_arch: str = "sm_70") -> Tuple[Cubin, IngestReport]:
    """Read and ingest one listing file (convenience wrapper)."""
    import os

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return ingest_listing(
        text, source_name=os.path.basename(str(path)), default_arch=default_arch
    )
