"""Slice digests: every instruction's immediate dependencies, pinned by sha256.

The blamer slices only the instructions that carry dependent stalls, so the
result digests in ``tests/evaluation`` see only those slices.  This file pins
the slice of every instruction of every function of every registry case,
baseline and optimized.  Each entry is the sha256 of ``json.dumps(payload)``
where ``payload`` maps function name -> use offset -> resource (``"R3"``,
``"B0"``) -> the def offsets the slicer returns, in its order.

To accept an intended change, regenerate the file and review the diff::

    PYTHONPATH=src python tests/blame/test_slice_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.blame.slicing import BackwardSlicer
from repro.structure.program import build_program_structure
from repro.workloads.registry import all_cases, case_by_name

GOLDEN = Path(__file__).parent / "golden" / "slice_digests.json"
VARIANTS = ("baseline", "optimized")


def slice_payload(cubin) -> dict:
    """Function -> use offset -> resource -> def offsets, for every instruction."""
    structure = build_program_structure(cubin)
    payload = {}
    for name, function in structure.functions.items():
        slicer = BackwardSlicer(function.cfg)
        payload[name] = {
            str(instruction.offset): {
                f"{kind}{index}": [site.offset for site in sites]
                for (kind, index), sites in slicer.slice_instruction(instruction.offset).defs.items()
            }
            for instruction in function.cfg.instructions()
        }
    return payload


def digest_of(case_id: str, variant: str) -> str:
    case = case_by_name(case_id)
    setup = case.build_baseline() if variant == "baseline" else case.build_optimized()
    payload = slice_payload(setup.cubin)
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


PINNED_SLICES = [
    pytest.param(case.case_id, variant, id=f"{case.case_id}/{variant}")
    for case in all_cases()
    for variant in VARIANTS
]


@pytest.mark.parametrize("case_id, variant", PINNED_SLICES)
def test_slices_match_pinned_digest(case_id, variant):
    expected = json.loads(GOLDEN.read_text())[f"{case_id} [{variant}]"]
    assert digest_of(case_id, variant) == expected


def test_every_registry_variant_is_pinned():
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(pinned) == sorted(
        f"{case.case_id} [{variant}]" for case in all_cases() for variant in VARIANTS
    )


def write_golden() -> None:
    """Rewrite the pinned digests from the running code."""
    pinned = {
        f"{case.case_id} [{variant}]": digest_of(case.case_id, variant)
        for case in all_cases()
        for variant in VARIANTS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} slice digests to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
