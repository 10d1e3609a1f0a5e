"""The CUBIN-like binary container.

A :class:`Cubin` holds everything GPA's static analyzer reads from a real
CUBIN:

* the architecture flag (``sm_70`` for Volta), from which architectural
  features are fetched;
* function symbols with their visibility (``global`` kernels vs ``device``
  functions);
* the encoded code section of each function (fixed-width 128-bit words);
* a line table mapping instruction offsets to source file/line, present when
  the code was compiled with ``-lineinfo``;
* DWARF-like inline information (which ranges of a function were inlined
  from which callee), used to build inline stacks;
* resource usage (registers per thread, static shared memory) needed for
  occupancy analysis.

A binary is frozen from top to bottom: :class:`Cubin` holds a read-only
mapping of frozen :class:`Function` objects, whose instruction and inline
range sequences are tuples of frozen values.  Build the function mapping
first (:class:`~repro.cubin.builder.CubinBuilder` does) and construct the
``Cubin`` once.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple

from repro.isa.encoder import decode_program, encode_program
from repro.isa.instruction import Instruction


class FunctionVisibility(enum.Enum):
    """Symbol visibility recorded for each function."""

    GLOBAL = "global"  # a kernel entry point (__global__)
    DEVICE = "device"  # a device function (__device__)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LineTableEntry:
    """One row of the line table: instruction offset -> source location."""

    offset: int
    file: str
    line: int


@dataclass(frozen=True)
class InlineRange:
    """A contiguous range of instruction offsets inlined from a callee."""

    start_offset: int
    end_offset: int
    callee: str
    call_site_line: Optional[int] = None

    def contains(self, offset: int) -> bool:
        return self.start_offset <= offset <= self.end_offset


@dataclass(frozen=True)
class Function:
    """One function in a CUBIN (frozen; sequences are stored as tuples)."""

    name: str
    visibility: FunctionVisibility
    instructions: Tuple[Instruction, ...]
    #: Registers used per thread (drives occupancy and spill analysis).
    registers_per_thread: int = 32
    #: Static shared memory used per block, in bytes.
    shared_memory_bytes: int = 0
    #: Inline information, outermost ranges only (nested inlining is encoded
    #: by the order of ranges: later ranges that sit inside earlier ones are
    #: deeper frames).
    inline_ranges: Tuple[InlineRange, ...] = ()
    #: Source file most of this function maps to.
    source_file: Optional[str] = None
    #: Raw disassembly text this function was ingested from, when it came
    #: through the SASS frontend (:mod:`repro.sass`).  Real-SASS operands
    #: (constant banks, uniform registers, unknown opcodes) do not fit the
    #: fixed-width encoder, so serialization falls back to this text and
    #: deserialization re-ingests it.
    source_listing: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "inline_ranges", tuple(self.inline_ranges))

    @property
    def is_kernel(self) -> bool:
        return self.visibility is FunctionVisibility.GLOBAL

    @property
    def code_size(self) -> int:
        """Code section size in bytes."""
        from repro.isa.instruction import INSTRUCTION_SIZE

        return len(self.instructions) * INSTRUCTION_SIZE

    def line_table(self) -> List[LineTableEntry]:
        """The line table recovered from instruction line annotations."""
        entries = []
        for instruction in self.instructions:
            if instruction.line is not None:
                entries.append(
                    LineTableEntry(
                        offset=instruction.offset,
                        file=instruction.source_file or self.source_file or "<unknown>",
                        line=instruction.line,
                    )
                )
        return entries

    def encode(self) -> bytes:
        """Encode the function's code section into bytes."""
        return encode_program(self.instructions)

    def instruction_at(self, offset: int) -> Instruction:
        for instruction in self.instructions:
            if instruction.offset == offset:
                return instruction
        raise KeyError(f"no instruction at offset {offset:#x} in {self.name}")

    def inline_stack_at(self, offset: int) -> Tuple[str, ...]:
        """Inline call stack (outermost first) covering ``offset``."""
        stack = []
        for inline_range in self.inline_ranges:
            if inline_range.contains(offset):
                stack.append(inline_range.callee)
        return tuple(stack)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class Cubin:
    """A GPU binary: several functions compiled for one architecture.

    Frozen, with ``functions`` a read-only copy of the mapping it is given.
    """

    arch_flag: str
    functions: Mapping[str, Function] = field(default_factory=dict)
    #: Name of the module/translation unit (for reports only).
    module_name: str = "module.cubin"

    def __post_init__(self) -> None:
        object.__setattr__(self, "functions", MappingProxyType(dict(self.functions)))

    def kernels(self) -> List[Function]:
        """All global (kernel) functions."""
        return [f for f in self.functions.values() if f.is_kernel]

    def device_functions(self) -> List[Function]:
        """All device functions."""
        return [f for f in self.functions.values() if not f.is_kernel]

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError as exc:
            raise KeyError(
                f"no function {name!r} in {self.module_name}; "
                f"available: {sorted(self.functions)}"
            ) from exc

    # ------------------------------------------------------------------
    # Serialization (profiles and binaries are dumped for offline analysis)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable description of the binary.

        Code sections are stored as hex-encoded bytes of the fixed-width
        encoding; metadata (visibility, resources, line/inline info) is kept
        alongside so :meth:`from_dict` can reconstruct the binary.  Functions
        ingested from real disassembly often use operands the fixed-width
        encoding cannot express; those serialize their raw listing text
        (``"sass"``) instead of a ``"code"`` section.
        """
        from repro.isa.encoder import EncodingError

        payload = {"arch_flag": self.arch_flag, "module_name": self.module_name, "functions": {}}
        for name, function in self.functions.items():
            try:
                code = {"code": function.encode().hex()}
            except EncodingError:
                if function.source_listing is None:
                    raise
                code = {"sass": function.source_listing}
            payload["functions"][name] = {
                "visibility": function.visibility.value,
                "registers_per_thread": function.registers_per_thread,
                "shared_memory_bytes": function.shared_memory_bytes,
                "source_file": function.source_file,
                **code,
                "base_offset": function.instructions[0].offset if function.instructions else 0,
                "lines": [
                    [entry.offset, entry.file, entry.line] for entry in function.line_table()
                ],
                "inline_ranges": [
                    [r.start_offset, r.end_offset, r.callee, r.call_site_line]
                    for r in function.inline_ranges
                ],
                "targets": {
                    str(i.offset): i.target
                    for i in function.instructions
                    if i.target is not None
                },
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Cubin":
        """Reconstruct a binary from :meth:`to_dict` output."""
        from dataclasses import replace

        functions = {}
        for name, data in payload["functions"].items():
            source_listing = data.get("sass")
            if source_listing is not None:
                # Re-ingest functions that serialized their raw listing.
                from repro.sass.frontend import ingest_listing

                ingested, _report = ingest_listing(
                    source_listing, source_name=name, default_arch=payload["arch_flag"]
                )
                instructions = list(next(iter(ingested.functions.values())).instructions)
            else:
                code = bytes.fromhex(data["code"])
                instructions = decode_program(code, base_offset=data.get("base_offset", 0))
            line_by_offset = {entry[0]: (entry[1], entry[2]) for entry in data.get("lines", [])}
            targets = {int(k): v for k, v in data.get("targets", {}).items()}
            restored = []
            for instruction in instructions:
                file_line = line_by_offset.get(instruction.offset)
                updates = {}
                if file_line is not None:
                    updates["source_file"] = file_line[0]
                    updates["line"] = file_line[1]
                if instruction.offset in targets:
                    updates["target"] = targets[instruction.offset]
                restored.append(replace(instruction, **updates) if updates else instruction)
            functions[name] = Function(
                name=name,
                visibility=FunctionVisibility(data["visibility"]),
                instructions=restored,
                registers_per_thread=data.get("registers_per_thread", 32),
                shared_memory_bytes=data.get("shared_memory_bytes", 0),
                source_file=data.get("source_file"),
                source_listing=source_listing,
                inline_ranges=[
                    InlineRange(r[0], r[1], r[2], r[3]) for r in data.get("inline_ranges", [])
                ],
            )
        return cls(
            arch_flag=payload["arch_flag"],
            functions=functions,
            module_name=payload.get("module_name", "module.cubin"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Cubin":
        return cls.from_dict(json.loads(text))

    def __len__(self) -> int:
        return len(self.functions)
