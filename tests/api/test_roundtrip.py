"""The round-trip guarantee of the acceptance criteria.

For every benchmark case in the registry, ``AdvisingResult.from_dict(
result.to_dict())`` must reproduce an equal result: same ranked advice,
same speedups, same blame tree — and ``dump -> load -> dump`` must be a
fixed point (the reloaded result re-dumps byte-identically).
"""

import json

import pytest

from repro.api.request import request_for_case
from repro.api.result import AdvisingResult
from repro.api.schema import ApiSchemaError
from repro.api.session import AdvisingSession
from repro.workloads.registry import case_names


@pytest.fixture(scope="module")
def registry_results():
    """One advising result per registry case, computed once."""
    session = AdvisingSession(sample_period=8)
    requests = [request_for_case(case_id) for case_id in case_names()]
    return {result.label: result for result in session.advise_many(requests)}


@pytest.mark.parametrize("case_id", case_names())
def test_result_round_trip_reproduces_equal_result(case_id, registry_results):
    result = registry_results[case_id]
    assert result.ok, result.error

    dumped = result.to_dict()
    reloaded = AdvisingResult.from_dict(json.loads(json.dumps(dumped)))

    # Fixed point: dump -> load -> dump changes nothing, byte for byte.
    assert reloaded.to_dict() == dumped
    assert json.dumps(reloaded.to_dict(), sort_keys=True) == json.dumps(
        dumped, sort_keys=True
    )

    # Same ranked advice and speedups.
    original = result.report
    twin = reloaded.report
    assert [item.optimizer for item in twin.advice] == [
        item.optimizer for item in original.advice
    ]
    assert [item.estimated_speedup for item in twin.advice] == [
        item.estimated_speedup for item in original.advice
    ]
    assert [item.applicable for item in twin.advice] == [
        item.applicable for item in original.advice
    ]

    # Same blame tree: every attribution record, the per-source aggregate,
    # the pruning statistics and the (detached) dependency graph topology.
    assert [edge.to_dict() for edge in twin.blame.edges] == [
        edge.to_dict() for edge in original.blame.edges
    ]
    assert twin.blame.blamed == original.blame.blamed
    assert twin.blame.pruning == original.blame.pruning
    assert twin.blame.graph.to_dict() == original.blame.graph.to_dict()

    # Same profile, sample for sample.
    assert twin.profile.to_dict() == original.profile.to_dict()
    assert twin.profile.stalls_by_reason() == original.profile.stalls_by_reason()


def test_result_wire_form_is_the_answer_and_its_address():
    dumped = AdvisingResult(request=request_for_case(case_names()[0])).to_dict()
    assert set(dumped) - {"kind", "schema_version"} == {
        "request", "index", "label", "arch_flag", "sample_period",
        "simulation_scope", "memory_model", "report", "error", "duration",
    }


def test_unknown_result_fields_are_rejected_by_name():
    """A field this build does not know is refused, not silently dropped."""
    payload = AdvisingResult(
        request=request_for_case("rodinia/hotspot:strength_reduction"), error="x"
    ).to_dict()
    payload["extra"] = {}
    payload["cache_policy"] = "bypass"
    with pytest.raises(ApiSchemaError, match=r"\['cache_policy', 'extra'\]"):
        AdvisingResult.from_dict(payload)
