"""Table 3 goldens: every row of the reproduced table, pinned byte for byte.

The committed files are what ``python -W error::RuntimeWarning -m
repro.evaluation.table3 --jobs 1 --json PATH [--memory-model hierarchy]``
writes.  The test regenerates both in-process through the same
``evaluate_table3``/``table3_payload`` calls and the same config dict as the
CLI, so any change to a row, an aggregate or a failure shows up as a
reviewed golden diff.  To accept an intended change, rerun those two
commands over the files.
"""

import json
from pathlib import Path

import pytest

from repro.evaluation.table3 import evaluate_table3, table3_payload
from repro.workloads.registry import all_cases

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
def test_table3_matches_golden(memory_model):
    cases = all_cases()
    config = {
        "arch_flag": "sm_70",
        "sample_period": 8,
        "simulation_scope": "single_wave",
        "memory_model": memory_model,
        "cases": len(cases),
        "jobs": 1,
    }
    result = evaluate_table3(cases, memory_model=memory_model)
    text = json.dumps(table3_payload(result, config), indent=2) + "\n"
    golden = GOLDEN / f"table3_single_wave_{memory_model}.json"
    assert text == golden.read_text()
