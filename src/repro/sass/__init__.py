"""Real-SASS ingestion frontend.

Lowers ``nvdisasm`` / ``cuobjdump -sass`` disassembly listings into the
in-repo instruction model so CFG recovery and the static lint engine run
over kernels that were never generated in-repo.  The frontend never crashes
on listing content: unknown opcodes become conservative unknown ops,
unparseable operands degrade to register extraction, unresolved branch
targets become fall-through edges — and every degradation is accounted for
in the :class:`IngestReport` that rides on the resulting lint report.
Hand-written programs go through the same grammar strictly:
:func:`parse_program` and :func:`parse_instruction` raise
:class:`ParseError` wherever ingestion would degrade.
"""

from repro.sass.decoder import (
    DecodedInstruction,
    ParseError,
    decode_instruction,
    parse_instruction,
    parse_program,
    strip_line,
)
from repro.sass.frontend import detect_dialect, ingest_file, ingest_listing
from repro.sass.lint import cubin_ingest_ledger, lint_file, lint_listing
from repro.sass.operands import OperandError, extract_registers, parse_operand
from repro.sass.report import FunctionIngest, IngestReport

__all__ = [
    "DecodedInstruction",
    "FunctionIngest",
    "IngestReport",
    "OperandError",
    "ParseError",
    "decode_instruction",
    "detect_dialect",
    "extract_registers",
    "ingest_file",
    "ingest_listing",
    "cubin_ingest_ledger",
    "lint_file",
    "lint_listing",
    "parse_instruction",
    "parse_operand",
    "parse_program",
    "strip_line",
]
