"""Profile-cache keys of every registry setup, pinned.

A change to the bytes :func:`repro.pipeline.cache.profile_cache_key` digests
turns every warm profile cache cold, and no other test would notice.  This
file pins ``ProfileStage.cache_key`` of every registry case's baseline and
optimized setup under a default :class:`~repro.api.session.AdvisingSession`'s
profile stage (Volta, period 8, single wave, flat memory).  The keys are the
same under Python 3.10, 3.11 and 3.12.

To accept an intended change (a new ``CACHE_SCHEMA_VERSION``, say),
regenerate the file and review the diff::

    PYTHONPATH=src python tests/pipeline/test_cache_key_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.api.session import AdvisingSession
from repro.pipeline.stages import ProfileRequest
from repro.workloads.registry import all_cases, case_by_name

GOLDEN = Path(__file__).parent / "golden" / "cache_keys.json"
VARIANTS = ("baseline", "optimized")


def cache_key_of(case_id: str, variant: str) -> str:
    case = case_by_name(case_id)
    setup = case.build_baseline() if variant == "baseline" else case.build_optimized()
    request = ProfileRequest(
        cubin=setup.cubin, kernel=setup.kernel, config=setup.config, workload=setup.workload
    )
    return AdvisingSession().profile_stage.cache_key(request)


PINNED_KEYS = [
    pytest.param(case.case_id, variant, id=f"{case.case_id}/{variant}")
    for case in all_cases()
    for variant in VARIANTS
]


@pytest.mark.parametrize("case_id, variant", PINNED_KEYS)
def test_cache_key_matches_pinned_key(case_id, variant):
    expected = json.loads(GOLDEN.read_text())[f"{case_id} [{variant}]"]
    assert cache_key_of(case_id, variant) == expected


def test_every_registry_variant_is_pinned():
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(pinned) == sorted(
        f"{case.case_id} [{variant}]" for case in all_cases() for variant in VARIANTS
    )


def write_golden() -> None:
    """Rewrite the pinned keys from the running code."""
    pinned = {
        f"{case.case_id} [{variant}]": cache_key_of(case.case_id, variant)
        for case in all_cases()
        for variant in VARIANTS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} cache keys to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
