"""CUBIN-like binary container and kernel authoring DSL.

The paper's profiler records CUDA binaries (CUBINs) for offline analysis;
GPA's static analyzer then recovers control flow and program structure from
them (:func:`repro.structure.program.build_program_structure`, once per
binary).  This package provides:

* :class:`~repro.cubin.binary.Cubin` / :class:`~repro.cubin.binary.Function`
  — the binary container (architecture flag, function symbols with
  global/device visibility, encoded code sections, line tables and
  DWARF-like inline information, register and shared-memory usage);
* :class:`~repro.cubin.builder.KernelBuilder` — a DSL for authoring SASS-like
  kernels, including an assembler pass that assigns control codes
  (stall cycles, write/read barriers and wait masks) the way ptxas does.
"""

from repro.cubin.binary import Cubin, Function, FunctionVisibility, LineTableEntry
from repro.cubin.builder import CubinBuilder, KernelBuilder

__all__ = [
    "Cubin",
    "CubinBuilder",
    "Function",
    "FunctionVisibility",
    "KernelBuilder",
    "LineTableEntry",
]
