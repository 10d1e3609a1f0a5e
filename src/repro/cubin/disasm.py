"""Disassembler (nvdisasm substitute).

GPA runs ``nvdisasm`` over CUBINs to decode instructions and dump raw control
flow graphs.  Our disassembler performs the same role on a binary's
functions: it renders an nvdisasm-like listing (with control-code brackets)
and produces the raw CFG that the static analyzer then refines.
:func:`repro.isa.encoder.decode_program` decodes an encoded code section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.cubin.binary import Cubin, Function


@dataclass
class DisassembledFunction:
    """The output of disassembling one function."""

    name: str
    listing: str
    instructions: list
    cfg: ControlFlowGraph


def render_listing(function: Function, with_control: bool = True) -> str:
    """Render an nvdisasm-like text listing of a function."""
    lines = [f"\t.function {function.name} ({function.visibility.value})"]
    last_line: Optional[int] = None
    for instruction in function.instructions:
        if instruction.line is not None and instruction.line != last_line:
            source = instruction.source_file or function.source_file or "<unknown>"
            lines.append(f"\t//## File \"{source}\", line {instruction.line}")
            last_line = instruction.line
        lines.append(f"        /*{instruction.offset:04x}*/  {instruction.render(with_control)}")
    return "\n".join(lines)


def disassemble_function(function: Function) -> DisassembledFunction:
    """Disassemble one function from its in-memory instruction list.

    The list keeps what the compact 128-bit encoding cannot represent
    exactly (long line numbers, more than two modifiers);
    :func:`~repro.isa.encoder.decode_program` reads the encoded code section.
    """
    instructions = list(function.instructions)
    cfg = build_cfg(instructions)
    listing = render_listing(function)
    return DisassembledFunction(
        name=function.name, listing=listing, instructions=instructions, cfg=cfg
    )


def disassemble_cubin(cubin: Cubin) -> Dict[str, DisassembledFunction]:
    """Disassemble every function in a binary."""
    return {name: disassemble_function(function) for name, function in cubin.functions.items()}
