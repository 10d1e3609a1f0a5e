"""Result digests: every canonical advising result, pinned by sha256.

Each entry is the sha256 of ``json.dumps(payload)``, where ``payload`` is one
``AdvisingResult.to_dict()`` without its ``duration``.  The dump is not
key-sorted, so the digest also pins dict order (the first-sample order of
stall counts, for one).  The entries cover:

* every registry case, baseline and optimized, single wave, on the flat
  model and on the memory hierarchy;
* every registry baseline on the whole GPU, on both memory models.  A
  normal run checks the few listed in ``WHOLE_GPU_BASELINES``; with
  ``REPRO_NIGHTLY_DIGESTS`` set (CI's nightly job) it checks all of them,
  which takes about 5 minutes on flat and 7 on the hierarchy (2 vCPUs).

Every entry was recorded while the object-model reference core that
versions before 8.0 kept beside the production core still produced the
same bytes, so the digests stand in for that reference.  They also see
what no comparison of two cores could: both called the same
:class:`~repro.sampling.memory.MemoryHierarchy`, so a change there (a
MEMORY_THROTTLE recheck horizon one cycle late, say) moved both alike.

Python 3.12 made the builtin ``sum()`` of floats compensated, which moves
the last digit of some estimates, so the file holds one set of digests for
interpreters before 3.12 and one for 3.12 on.  To accept an intended
change, regenerate the file under one interpreter of each kind (each run
rewrites its own set) and review the diff::

    PYTHONPATH=src python3.11 tests/evaluation/test_result_digests.py
    PYTHONPATH=src python3.12 tests/evaluation/test_result_digests.py

Each run records every entry, the whole-GPU baselines of all 26 cases
included.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.workloads.registry import all_cases, case_names

GOLDEN = Path(__file__).parent / "golden" / "result_digests.json"
FLOAT_SUM = "python>=3.12" if sys.version_info >= (3, 12) else "python<3.12"

VARIANTS = ("baseline", "optimized")
#: The whole-GPU baselines every run checks, per memory model: the three
#: smallest grids (PeleC, particlefilter and streamcluster, 16-50 blocks),
#: perfbench's three whole-GPU cases (nw, lud, streamcluster), and PeleC,
#: whose launch is bound by L1 MSHRs under the hierarchy.
WHOLE_GPU_BASELINES = {
    "flat": (
        "PeleC:block_increase",
        "rodinia/particlefilter:block_increase",
        "rodinia/streamcluster:block_increase",
    ),
    "hierarchy": (
        "rodinia/nw:warp_balance",
        "rodinia/lud:code_reorder",
        "rodinia/streamcluster:block_increase",
        "PeleC:block_increase",
        "rodinia/particlefilter:block_increase",
    ),
}
#: Check the whole-GPU baselines of every registry case (CI's nightly job).
NIGHTLY = bool(os.environ.get("REPRO_NIGHTLY_DIGESTS"))
#: configuration -> (simulation scope, memory model)
CONFIGURATIONS = {
    "single_wave/flat": ("single_wave", "flat"),
    "single_wave/hierarchy": ("single_wave", "hierarchy"),
    "whole_gpu/flat": ("whole_gpu", "flat"),
    "whole_gpu/hierarchy": ("whole_gpu", "hierarchy"),
}


def pinned_pairs(configuration: str, every_case: bool) -> tuple:
    """The (case id, variant) pairs a configuration checks."""
    scope, memory_model = CONFIGURATIONS[configuration]
    if scope == "single_wave":
        return tuple(
            (case.case_id, variant) for case in all_cases() for variant in VARIANTS
        )
    cases = case_names() if every_case else WHOLE_GPU_BASELINES[memory_model]
    return tuple((case_id, "baseline") for case_id in cases)


def result_digest(result) -> str:
    payload = result.to_dict()
    del payload["duration"]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def session_for(configuration: str) -> AdvisingSession:
    scope, memory_model = CONFIGURATIONS[configuration]
    return AdvisingSession(
        sample_period=8, simulation_scope=scope, memory_model=memory_model
    )


def digest_of(session: AdvisingSession, case_id: str, variant: str) -> str:
    result = session.advise(request_for_case(case_id, variant))
    assert result.ok, (case_id, variant, result.error)
    return result_digest(result)


def compute_digests(configuration: str, every_case: bool) -> dict:
    """``{"case id [variant]": digest}`` of one configuration."""
    session = session_for(configuration)
    return {
        f"{case_id} [{variant}]": digest_of(session, case_id, variant)
        for case_id, variant in pinned_pairs(configuration, every_case)
    }


#: One test per pinned result, so a failure names its case, as the
#: per-case comparisons against the reference core did.
PINNED_RESULTS = [
    pytest.param(configuration, case_id, variant, id=f"{configuration}/{case_id}/{variant}")
    for configuration in CONFIGURATIONS
    for case_id, variant in pinned_pairs(configuration, every_case=NIGHTLY)
]


@pytest.mark.parametrize("configuration, case_id, variant", PINNED_RESULTS)
def test_result_matches_pinned_digest(configuration, case_id, variant):
    expected = json.loads(GOLDEN.read_text())[FLOAT_SUM][configuration]
    actual = digest_of(session_for(configuration), case_id, variant)
    assert actual == expected[f"{case_id} [{variant}]"]


def test_every_result_is_pinned():
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(pinned) == ["python<3.12", "python>=3.12"]
    for digests in pinned.values():
        for configuration in CONFIGURATIONS:
            pairs = pinned_pairs(configuration, every_case=True)
            assert sorted(digests[configuration]) == sorted(
                f"{case_id} [{variant}]" for case_id, variant in pairs
            ), configuration


def write_golden() -> None:
    """Rewrite this interpreter's set of digests, keeping the other set."""
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    pinned[FLOAT_SUM] = {
        configuration: compute_digests(configuration, every_case=True)
        for configuration in CONFIGURATIONS
    }
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote the {FLOAT_SUM} digests of {GOLDEN}")


if __name__ == "__main__":
    write_golden()
