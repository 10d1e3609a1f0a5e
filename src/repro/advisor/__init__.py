"""The GPA advisor: dynamic analyzer, report and CLI.

The right half of Figure 2.  Its static half is
:func:`repro.structure.program.build_program_structure`, which recovers a
CUBIN's control flow and program structure once, and :mod:`repro.staticcheck`,
which lints them.  This package holds:

* :class:`~repro.advisor.dynamic_analyzer.DynamicAnalyzer` — runs the
  instruction blamer, matches every registered optimizer and estimates its
  speedup;
* :mod:`repro.advisor.report` — the ASCII advice report (Figure 8 format);
* :mod:`repro.advisor.cli` — the ``gpa-advise`` command line tool.
"""

from repro.advisor.dynamic_analyzer import DynamicAnalyzer
from repro.advisor.report import AdviceReport, render_report

__all__ = [
    "AdviceReport",
    "DynamicAnalyzer",
    "render_report",
]
