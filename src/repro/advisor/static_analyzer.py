"""The static analyzer (the left half of Figure 2).

From a CUBIN the static analyzer recovers:

* control flow graphs (our nvdisasm substitute decodes instructions; super
  blocks are split into basic blocks and loop nests are recovered — the role
  Dyninst plays in the paper),
* the program structure file (function symbols with visibility, inline
  stacks, loop nests, source-line mappings),
* architectural features, fetched from the architecture flag encoded in the
  binary (instruction latencies, warp size, register limits, ...).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.machine import ArchitectureError, GpuArchitecture, VoltaV100, get_architecture
from repro.cubin.binary import Cubin
from repro.cubin.disasm import DisassembledFunction, disassemble_cubin
from repro.structure.program import ProgramStructure, build_program_structure


@dataclass
class StaticAnalysis:
    """Everything the static analyzer recovers from one binary."""

    cubin: Cubin
    structure: ProgramStructure
    architecture: GpuArchitecture
    disassembly: Dict[str, DisassembledFunction]
    #: The unknown architecture flag :attr:`architecture` was substituted
    #: for, or ``None`` when the binary's flag resolved cleanly.
    architecture_fallback: Optional[str] = None

    def listing(self, function_name: str) -> str:
        """The nvdisasm-style listing of one function."""
        return self.disassembly[function_name].listing


class StaticAnalyzer:
    """Analyzes CUBINs offline, before any profile is consulted.

    A binary whose architecture flag is unknown falls back to
    ``default_architecture`` — the fallback is recorded on the analysis and
    warned about, because latency figures from the wrong machine model are
    quietly misleading.  ``strict=True`` turns the fallback into the
    underlying :class:`~repro.arch.machine.ArchitectureError` instead.
    """

    def __init__(
        self,
        default_architecture: Optional[GpuArchitecture] = None,
        strict: bool = False,
    ):
        self.default_architecture = default_architecture or VoltaV100
        self.strict = strict

    def analyze(self, cubin: Cubin) -> StaticAnalysis:
        """Recover structure, architecture features and disassembly."""
        architecture_fallback: Optional[str] = None
        try:
            architecture = get_architecture(cubin.arch_flag)
        except ArchitectureError:
            if self.strict:
                raise
            architecture = self.default_architecture
            architecture_fallback = cubin.arch_flag
            warnings.warn(
                f"unknown architecture flag {cubin.arch_flag!r}; analyzing "
                f"against {architecture.name} — latency and occupancy figures "
                "may not match the real target",
                stacklevel=2,
            )
        structure = build_program_structure(cubin)
        disassembly = disassemble_cubin(cubin)
        return StaticAnalysis(
            cubin=cubin,
            structure=structure,
            architecture=architecture,
            disassembly=disassembly,
            architecture_fallback=architecture_fallback,
        )
