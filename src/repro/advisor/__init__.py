"""The GPA advisor: static analyzer, dynamic analyzer, report and CLI.

This package glues the pipeline of Figure 2 together:

* :class:`~repro.advisor.static_analyzer.StaticAnalyzer` — recovers control
  flow, program structure and architectural features from a CUBIN;
* :class:`~repro.advisor.dynamic_analyzer.DynamicAnalyzer` — runs the
  instruction blamer, matches every registered optimizer and estimates its
  speedup;
* :mod:`repro.advisor.report` — the ASCII advice report (Figure 8 format);
* :mod:`repro.advisor.cli` — the ``gpa-advise`` command line tool.
"""

from repro.advisor.static_analyzer import StaticAnalysis, StaticAnalyzer
from repro.advisor.dynamic_analyzer import DynamicAnalyzer
from repro.advisor.report import AdviceReport, render_report

__all__ = [
    "AdviceReport",
    "DynamicAnalyzer",
    "StaticAnalysis",
    "StaticAnalyzer",
    "render_report",
]
