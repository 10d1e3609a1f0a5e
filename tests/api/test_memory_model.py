"""The memory_model knob: API plumbing, wire format, cache separation."""

import pytest

from repro.api.request import AdvisingRequest, request_for_case
from repro.api.result import AdvisingResult
from repro.api.schema import ApiValidationError
from repro.api.session import AdvisingSession
from repro.pipeline.cache import ProfileCache
from repro.pipeline.stages import ProfileRequest, ProfileStage
from repro.sampling.sample import KernelProfile
from repro.workloads.memory_patterns import (
    memory_microbenchmark,
    microbenchmark_config,
    strided_workload,
)

CASE = "rodinia/hotspot:strength_reduction"


@pytest.fixture(scope="module")
def micro_request():
    return AdvisingRequest(
        source="binary",
        cubin=memory_microbenchmark(),
        kernel="memory_stream",
        config=microbenchmark_config(grid_blocks=32),
        workload=strided_workload(trip_count=16),
    )


class TestRequestKnob:
    def test_defaults_to_none_meaning_session_choice(self):
        request = AdvisingRequest(source="case", case_id=CASE)
        assert request.memory_model is None

    def test_rejects_unknown_model(self):
        with pytest.raises(ApiValidationError, match="unknown memory model"):
            AdvisingRequest(source="case", case_id=CASE, memory_model="banked")

    def test_request_wire_roundtrip_is_a_fixed_point(self):
        request = request_for_case(CASE, memory_model="hierarchy")
        payload = request.to_dict()
        assert payload["memory_model"] == "hierarchy"
        reloaded = AdvisingRequest.from_dict(payload)
        assert reloaded == request
        assert reloaded.to_dict() == payload


class TestSessionKnob:
    def test_session_validates_the_model(self):
        with pytest.raises(ApiValidationError, match="unknown memory model"):
            AdvisingSession(memory_model="banked")

    def test_flat_default_matches_explicit_flat(self):
        default = AdvisingSession(sample_period=8)
        explicit = AdvisingSession(sample_period=8, memory_model="flat")
        a = default.profile(request_for_case(CASE))
        b = explicit.profile(request_for_case(CASE))
        assert default.memory_model == "flat"
        assert a.profile.to_dict() == b.profile.to_dict()
        assert a.profile.statistics.memory_model == "flat"
        assert a.profile.statistics.memory is None

    def test_hierarchy_differs_and_records_statistics(self, micro_request):
        flat = AdvisingSession(sample_period=8).profile(micro_request)
        hier = AdvisingSession(sample_period=8, memory_model="hierarchy").profile(
            micro_request)
        assert hier.profile.statistics.kernel_cycles != flat.profile.statistics.kernel_cycles
        memory = hier.profile.statistics.memory
        assert memory is not None
        assert memory.requests > 0 and memory.sectors > 0
        assert memory.transactions_per_request > 4.0

    def test_request_override_beats_session_default(self, micro_request):
        session = AdvisingSession(sample_period=8)  # flat default
        from dataclasses import replace

        result = session.advise(replace(micro_request, memory_model="hierarchy"))
        assert result.ok
        assert result.memory_model == "hierarchy"
        assert result.report.profile.statistics.memory_model == "hierarchy"

    def test_result_records_the_session_model(self, micro_request):
        result = AdvisingSession(sample_period=8, memory_model="hierarchy").advise(
            micro_request)
        assert result.ok
        assert result.memory_model == "hierarchy"

    def test_pool_config_carries_the_model(self):
        session = AdvisingSession(sample_period=8, memory_model="hierarchy", jobs=2)
        assert session._pool_config()["memory_model"] == "hierarchy"


class TestWireFormat:
    def test_profile_with_memory_statistics_roundtrips(self, micro_request):
        session = AdvisingSession(sample_period=8, memory_model="hierarchy")
        profiled = session.profile(micro_request)
        payload = profiled.profile.to_dict()
        assert payload["statistics"]["memory_model"] == "hierarchy"
        assert payload["statistics"]["memory"]["sectors"] > 0
        reloaded = KernelProfile.from_json(profiled.profile.to_json())
        assert reloaded.to_dict() == payload

    def test_result_wire_roundtrip_keeps_the_model(self, micro_request):
        result = AdvisingSession(sample_period=8, memory_model="hierarchy").advise(
            micro_request)
        payload = result.to_dict()
        assert payload["memory_model"] == "hierarchy"
        reloaded = AdvisingResult.from_dict(payload)
        assert reloaded.memory_model == "hierarchy"
        assert reloaded.to_dict() == payload

    def test_profile_source_reports_the_recorded_model(self, micro_request):
        session = AdvisingSession(sample_period=8, memory_model="hierarchy")
        profiled = session.profile(micro_request)
        analysis_session = AdvisingSession(sample_period=8)  # flat default
        result = analysis_session.advise(
            AdvisingRequest(
                source="profile", profile=profiled.profile, cubin=micro_request.cubin
            )
        )
        assert result.ok
        # The result reflects what the profile was collected with, not the
        # analyzing session's default.
        assert result.memory_model == "hierarchy"


class TestCacheSeparation:
    def test_cache_keys_differ_between_models(self, micro_request, tmp_path):
        request = ProfileRequest(
            cubin=micro_request.cubin, kernel=micro_request.kernel,
            config=micro_request.config, workload=micro_request.workload,
        )
        flat_stage = ProfileStage(sample_period=8, cache=str(tmp_path))
        hier_stage = ProfileStage(
            sample_period=8, cache=str(tmp_path), memory_model="hierarchy")
        assert flat_stage.cache_key(request) != hier_stage.cache_key(request)

    def test_profiles_are_cached_separately(self, micro_request, tmp_path):
        cache = ProfileCache(tmp_path)
        for model in ("flat", "hierarchy"):
            session = AdvisingSession(
                sample_period=8, cache=cache, memory_model=model)
            session.profile(micro_request)
        assert len(cache) == 2

        # A warm replay returns the profile collected with the same model.
        warm = AdvisingSession(
            sample_period=8, cache=cache, memory_model="hierarchy")
        replayed = warm.profile(micro_request)
        assert replayed.simulation is None  # served from cache
        assert replayed.profile.statistics.memory_model == "hierarchy"
        assert replayed.profile.statistics.memory is not None


class TestWholeGpuComposition:
    def test_hierarchy_composes_with_whole_gpu_scope(self, micro_request):
        session = AdvisingSession(
            sample_period=32, memory_model="hierarchy",
            simulation_scope="whole_gpu")
        profiled = session.profile(micro_request)
        statistics = profiled.profile.statistics
        assert statistics.simulation_scope == "whole_gpu"
        assert statistics.memory_model == "hierarchy"
        # Stats merge across every simulated SM: at least one request per
        # occupied SM.
        assert statistics.memory.requests >= profiled.occupancy.blocks_per_sm
