"""Result digests: every canonical advising result, pinned by sha256.

Each entry is the sha256 of ``json.dumps(payload)``, where ``payload`` is one
``AdvisingResult.to_dict()`` without its ``duration``.  The dump is not
key-sorted, so the digest also pins dict order (the first-sample order of
stall counts, for one).  The entries cover:

* every registry case, baseline and optimized, single wave, on the flat
  model and on the memory hierarchy;
* the whole-GPU hierarchy baselines of perfbench's three whole-GPU cases,
  and of ``PeleC:block_increase``, whose launch is bound by L1 MSHRs.

Both simulator cores call the same :class:`~repro.sampling.memory
.MemoryHierarchy`, so a change there (a MEMORY_THROTTLE recheck horizon one
cycle late, say) moves both cores alike and the backend-equivalence tests
cannot see it.  These digests can.

Python 3.12 made the builtin ``sum()`` of floats compensated, which moves
the last digit of some estimates, so the file holds one set of digests for
interpreters before 3.12 and one for 3.12 on.  To accept an intended
change, regenerate the file under one interpreter of each kind (each run
rewrites its own set) and review the diff::

    PYTHONPATH=src python3.11 tests/evaluation/test_result_digests.py
    PYTHONPATH=src python3.12 tests/evaluation/test_result_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.workloads.registry import all_cases

GOLDEN = Path(__file__).parent / "golden" / "result_digests.json"
FLOAT_SUM = "python>=3.12" if sys.version_info >= (3, 12) else "python<3.12"

VARIANTS = ("baseline", "optimized")
WHOLE_GPU_BASELINES = (
    "rodinia/nw:warp_balance",
    "rodinia/lud:code_reorder",
    "rodinia/streamcluster:block_increase",
    "PeleC:block_increase",
)
#: configuration -> (simulation scope, memory model, (case id, variant) pairs)
CONFIGURATIONS = {
    "single_wave/flat": ("single_wave", "flat", None),
    "single_wave/hierarchy": ("single_wave", "hierarchy", None),
    "whole_gpu/hierarchy": (
        "whole_gpu", "hierarchy",
        tuple((case_id, "baseline") for case_id in WHOLE_GPU_BASELINES),
    ),
}


def result_digest(result) -> str:
    payload = result.to_dict()
    del payload["duration"]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def compute_digests(configuration: str) -> dict:
    """``{"case id [variant]": digest}`` of one configuration."""
    scope, memory_model, pairs = CONFIGURATIONS[configuration]
    if pairs is None:
        pairs = tuple(
            (case.case_id, variant) for case in all_cases() for variant in VARIANTS
        )
    session = AdvisingSession(
        sample_period=8, simulation_scope=scope, memory_model=memory_model
    )
    digests = {}
    for case_id, variant in pairs:
        result = session.advise(request_for_case(case_id, variant))
        assert result.ok, (case_id, variant, result.error)
        digests[f"{case_id} [{variant}]"] = result_digest(result)
    return digests


@pytest.mark.parametrize("configuration", list(CONFIGURATIONS))
def test_results_match_pinned_digests(configuration):
    expected = json.loads(GOLDEN.read_text())[FLOAT_SUM][configuration]
    actual = compute_digests(configuration)
    changed = sorted(
        key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key)
    )
    assert not changed, f"{len(changed)} results changed: {changed}"


def write_golden() -> None:
    """Rewrite this interpreter's set of digests, keeping the other set."""
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    pinned[FLOAT_SUM] = {
        configuration: compute_digests(configuration) for configuration in CONFIGURATIONS
    }
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote the {FLOAT_SUM} digests of {GOLDEN}")


if __name__ == "__main__":
    write_golden()
