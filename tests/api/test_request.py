"""Tests for AdvisingRequest: construction, validation, serialization."""

import dataclasses
import json

import pytest

from repro.api.request import AdvisingRequest, request_for_case
from repro.api.schema import (
    API_SCHEMA_VERSION,
    ApiSchemaError,
    ApiValidationError,
)
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec


class TestConstruction:
    def test_case_request(self):
        request = AdvisingRequest(
            source="case",
            case_id="rodinia/hotspot:strength_reduction",
            arch_flag="sm_80",
            sample_period=16,
            optimizers=("GPULoopUnrollingOptimizer",),
            label="hotspot@ampere",
        )
        assert request.source == "case"
        assert request.case_id == "rodinia/hotspot:strength_reduction"
        assert request.arch_flag == "sm_80"
        assert request.sample_period == 16
        assert request.optimizers == ("GPULoopUnrollingOptimizer",)
        assert request.describe() == "hotspot@ampere"

    def test_optimized_variant(self):
        request = AdvisingRequest(source="case", case_id="a/b:c", variant="optimized")
        assert request.variant == "optimized"
        assert request.describe() == "a/b:c@optimized"

    def test_binary_request(self, toy_cubin, toy_config, toy_workload):
        request = AdvisingRequest(
            source="binary", cubin=toy_cubin, kernel="toy_kernel",
            config=toy_config, workload=toy_workload,
        )
        assert request.source == "binary"
        assert request.describe() == "toy_kernel"

    def test_two_sources_conflict(self, toy_cubin, toy_config):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(
                source="case", case_id="a/b:c", cubin=toy_cubin,
                kernel="toy_kernel", config=toy_config,
            )

    def test_fields_are_only_those_that_change_an_answer(self):
        # Plus the display-only label.  Everything else a request could
        # carry (how to cache, how to build it) is not part of the job.
        assert [field.name for field in dataclasses.fields(AdvisingRequest)] == [
            "source", "case_id", "variant", "cubin", "kernel", "config",
            "workload", "profile", "arch_flag", "sample_period",
            "simulation_scope", "memory_model", "optimizers", "label",
        ]


class TestValidation:
    def test_case_needs_case_id(self):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="case")

    def test_binary_needs_cubin_kernel_config(self, toy_cubin):
        with pytest.raises(ApiValidationError, match="kernel"):
            AdvisingRequest(source="binary", cubin=toy_cubin)

    def test_profile_needs_cubin(self, toy_profiled):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="profile", profile=toy_profiled.profile)

    def test_unknown_source(self):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="telepathy")

    def test_unknown_variant(self):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="case", case_id="a/b:c", variant="fastest")

    def test_nonpositive_sample_period(self):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="case", case_id="a/b:c", sample_period=0)

    def test_unknown_arch_flag(self):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="case", case_id="a/b:c", arch_flag="sm_1")

    def test_empty_optimizer_selection(self):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="case", case_id="a/b:c", optimizers=())

    def test_unknown_simulation_scope(self):
        with pytest.raises(ApiValidationError):
            AdvisingRequest(source="case", case_id="a/b:c", simulation_scope="per_warp")

    def test_valid_simulation_scopes(self):
        for scope in (None, "single_wave", "whole_gpu"):
            request = AdvisingRequest(
                source="case", case_id="a/b:c", simulation_scope=scope
            )
            assert request.simulation_scope == scope


class TestSerialization:
    def test_case_request_round_trip_is_fixed_point(self):
        request = AdvisingRequest(
            source="case", case_id="rodinia/bfs:loop_unrolling",
            variant="optimized", arch_flag="sm_75", sample_period=4,
        )
        dumped = request.to_dict()
        assert dumped["schema_version"] == API_SCHEMA_VERSION
        reloaded = AdvisingRequest.from_dict(json.loads(json.dumps(dumped)))
        assert reloaded == request
        assert reloaded.to_dict() == dumped

    def test_binary_request_round_trip(self, toy_cubin, toy_config):
        workload = WorkloadSpec(
            name="toy", loop_trip_counts={12: 9}, uncoalesced_lines={13}
        )
        request = AdvisingRequest(
            source="binary", cubin=toy_cubin, kernel="toy_kernel",
            config=toy_config, workload=workload,
        )
        dumped = request.to_dict()
        reloaded = AdvisingRequest.from_dict(json.loads(json.dumps(dumped)))
        assert reloaded.to_dict() == dumped
        assert reloaded.kernel == "toy_kernel"
        assert reloaded.config == toy_config
        assert reloaded.workload.loop_trip_counts == {12: 9}
        assert reloaded.cubin.function("toy_kernel").instructions

    def test_simulation_scope_round_trips(self):
        request = AdvisingRequest(
            source="case", case_id="rodinia/heartwall:loop_unrolling",
            simulation_scope="whole_gpu",
        )
        assert request.simulation_scope == "whole_gpu"
        dumped = request.to_dict()
        assert dumped["simulation_scope"] == "whole_gpu"
        reloaded = AdvisingRequest.from_dict(json.loads(json.dumps(dumped)))
        assert reloaded == request
        assert reloaded.to_dict() == dumped

    def test_absent_simulation_scope_defaults_to_session(self):
        payload = AdvisingRequest(source="case", case_id="a/b:c").to_dict()
        assert payload["simulation_scope"] is None
        assert AdvisingRequest.from_dict(payload).simulation_scope is None

    def test_wrong_schema_version_is_rejected(self):
        request = AdvisingRequest(source="case", case_id="a/b:c")
        payload = request.to_dict()
        payload["schema_version"] = API_SCHEMA_VERSION + 1
        with pytest.raises(ApiSchemaError):
            AdvisingRequest.from_dict(payload)

    def test_unknown_fields_are_rejected_by_name(self):
        """A setting an older build knew is refused, not silently dropped,
        even beside a valid stated fingerprint."""
        payload = request_for_case("rodinia/hotspot:strength_reduction").to_dict()
        payload["cache_policy"] = "bypass"
        payload["simulator_backend"] = "object"
        with pytest.raises(ApiSchemaError, match=r"\['cache_policy', 'simulator_backend'\]"):
            AdvisingRequest.from_dict(payload)

    def test_wrong_kind_is_rejected(self):
        payload = AdvisingRequest(source="case", case_id="a/b:c").to_dict()
        payload["kind"] = "advising_result"
        with pytest.raises(ApiSchemaError):
            AdvisingRequest.from_dict(payload)


class TestRequestForCase:
    def test_registry_id_becomes_case_source(self):
        request = request_for_case("rodinia/hotspot:strength_reduction")
        assert request.source == "case"
        assert request.label == "rodinia/hotspot:strength_reduction"

    def test_registry_case_object_becomes_case_source(self):
        from repro.workloads.registry import case_by_name

        case = case_by_name("rodinia/hotspot:strength_reduction")
        request = request_for_case(case, "optimized", arch_flag="sm_80")
        assert request.source == "case"
        assert request.variant == "optimized"
        assert request.arch_flag == "sm_80"

    def test_ad_hoc_case_is_materialized_to_binary(self):
        import dataclasses

        from repro.workloads.registry import case_by_name

        case = case_by_name("rodinia/hotspot:strength_reduction")
        clone = dataclasses.replace(case, name="custom/clone")
        request = request_for_case(clone)
        assert request.source == "binary"
        assert request.label == "custom/clone:strength_reduction"
        assert request.cubin is not None

    def test_launch_config_round_trip(self):
        config = LaunchConfig(3, 64, shared_memory_bytes=1024)
        assert LaunchConfig.from_dict(config.to_dict()) == config
