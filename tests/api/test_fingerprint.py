"""Request fingerprints: the content address coalescing and clients key on."""

import pytest

from repro.api.request import (
    FINGERPRINT_EXCLUDED,
    FINGERPRINT_VERSION,
    AdvisingRequest,
    request_for_case,
)
from repro.api.schema import API_SCHEMA_VERSION, ApiSchemaError

CASE_ID = "rodinia/hotspot:strength_reduction"


def hotspot(**knobs):
    return request_for_case(CASE_ID, arch_flag="sm_70", **knobs)


class TestFingerprint:
    def test_deterministic_across_instances(self):
        assert hotspot().fingerprint() == hotspot().fingerprint()

    def test_is_hex_sha256(self):
        digest = hotspot().fingerprint()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_every_semantic_knob_changes_it(self):
        base = hotspot().fingerprint()
        assert hotspot(sample_period=16).fingerprint() != base
        assert hotspot(simulation_scope="whole_gpu").fingerprint() != base
        assert hotspot(memory_model="hierarchy").fingerprint() != base
        assert hotspot(cache_policy="bypass").fingerprint() != base
        other_arch = request_for_case(CASE_ID, arch_flag="sm_75")
        assert other_arch.fingerprint() != base

    def test_label_is_excluded(self):
        assert FINGERPRINT_EXCLUDED == ("label",)
        labelled = (AdvisingRequest.builder().case(CASE_ID).arch("sm_70")
                    .label("my run").build())
        assert labelled.fingerprint() == hotspot().fingerprint()

    def test_versioned_salt(self):
        # The digest is salted with FINGERPRINT_VERSION, decoupled from the
        # API schema: a wire-format bump alone must not shift fingerprints.
        assert FINGERPRINT_VERSION == 2

    def test_builder_idempotency_key_matches(self):
        builder = AdvisingRequest.builder().case(CASE_ID).sample_period(8)
        assert builder.idempotency_key() == builder.build().fingerprint()


class TestWireForm:
    def test_to_dict_carries_fingerprint(self):
        payload = hotspot().to_dict()
        assert payload["schema_version"] == API_SCHEMA_VERSION
        assert payload["fingerprint"] == hotspot().fingerprint()

    def test_round_trip_preserves_fingerprint(self):
        payload = hotspot().to_dict()
        assert AdvisingRequest.from_dict(payload).fingerprint() == (
            payload["fingerprint"]
        )

    def test_strict_loader_rejects_stated_mismatch(self):
        payload = hotspot().to_dict()
        payload["fingerprint"] = "0" * 64
        with pytest.raises(ApiSchemaError, match="fingerprint"):
            AdvisingRequest.from_dict(payload)

    def test_absent_fingerprint_is_tolerated(self):
        # Older (schema<=6) senders never stated one; absence is not a lie.
        payload = hotspot().to_dict()
        del payload["fingerprint"]
        assert AdvisingRequest.from_dict(payload) == hotspot()
