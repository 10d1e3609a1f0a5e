"""Evaluation harness: the code that regenerates the paper's tables and figures.

* :mod:`repro.evaluation.table3` — achieved vs. estimated speedups for every
  (kernel, optimization) pair of Table 3;
* :mod:`repro.evaluation.figure7` — single-dependency coverage before and
  after pruning cold edges (Figure 7);
* :mod:`repro.evaluation.figure1` — the PC-sampling mental model of Figure 1
  (stall/active ratios from round-robin scheduler sampling);
* :mod:`repro.evaluation.metrics` — shared helpers (geometric mean, error)
  and the Table 3 row and aggregate functions every harness shares.

Import the submodules directly.  The package re-exports nothing, so
``python -m repro.evaluation.table3`` runs a module that is not already
imported.  ``examples/`` uses these entry points directly.
"""
