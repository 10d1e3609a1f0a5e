"""Tests for AdvisingSession: execution modes, knobs, error capture."""

import json
import os

import pytest

from repro.api import session as session_module
from repro.api.request import AdvisingRequest, request_for_case
from repro.api.result import AdvisingError, AdvisingResult, dump_jsonl, load_jsonl
from repro.api.schema import ApiValidationError
from repro.api.session import AdvisingSession

SUBSET = ["rodinia/backprop:warp_balance", "rodinia/gaussian:thread_increase"]


def _dying_worker(config, payload, index):
    """A pool worker that kills its process, breaking the whole pool."""
    os._exit(1)


def _fraction_request(cubin, config):
    """A binary request whose workload holds a value JSON cannot express."""
    from fractions import Fraction

    from repro.sampling.workload import WorkloadSpec

    workload = WorkloadSpec(loop_trip_counts={12: 4}, memory_latency_scale=Fraction(3, 2))
    return AdvisingRequest(
        source="binary", cubin=cubin, kernel="toy_kernel", config=config,
        workload=workload,
    )


class TestAdvise:
    def test_case_request(self, session):
        result = session.advise(request_for_case(SUBSET[0]))
        assert result.ok
        assert result.label == SUBSET[0]
        assert result.arch_flag == "sm_70"
        assert result.sample_period == 8
        assert result.report.advice
        assert result.duration > 0.0

    def test_binary_request_matches_case_request(self, session):
        from repro.workloads.registry import case_by_name

        setup = case_by_name(SUBSET[0]).build_baseline()
        request = AdvisingRequest(
            source="binary", cubin=setup.cubin, kernel=setup.kernel,
            config=setup.config, workload=setup.workload,
        )
        by_binary = session.report_for(request)
        by_case = session.report_for(request_for_case(SUBSET[0]))
        assert by_binary.to_dict() == by_case.to_dict()

    def test_binary_request(self, session, toy_cubin, toy_config, toy_workload):
        request = AdvisingRequest(
            source="binary", cubin=toy_cubin, kernel="toy_kernel",
            config=toy_config, workload=toy_workload,
        )
        result = session.advise(request)
        assert result.ok
        assert result.report.kernel == "toy_kernel"

    def test_profile_request_runs_analysis_only(self, session, toy_profiled, toy_cubin):
        request = AdvisingRequest(
            source="profile", profile=toy_profiled.profile, cubin=toy_cubin
        )
        result = session.advise(request)
        assert result.ok
        assert result.report.profile.total_samples == toy_profiled.profile.total_samples

    def test_unknown_case_is_captured_not_raised(self, session):
        result = session.advise(request_for_case("no/such:case"))
        assert not result.ok
        assert "KeyError" in result.error
        with pytest.raises(AdvisingError):
            result.require_report()

    def test_report_for_raises_on_failure(self, session):
        with pytest.raises(AdvisingError, match="no/such:case"):
            session.report_for(request_for_case("no/such:case"))

    def test_profile_source_cannot_be_profiled(self, session, toy_profiled, toy_cubin):
        request = AdvisingRequest(
            source="profile", profile=toy_profiled.profile, cubin=toy_cubin
        )
        with pytest.raises(ApiValidationError):
            session.profile(request)

    def test_arch_override_changes_statistics(self, session):
        volta = session.report_for(request_for_case(SUBSET[1]))
        turing = session.report_for(request_for_case(SUBSET[1], arch_flag="sm_75"))
        assert volta.profile.statistics.to_dict() != turing.profile.statistics.to_dict()

    def test_optimizer_selection_narrows_the_report(self, session):
        request = request_for_case(
            SUBSET[0], optimizers=("GPUWarpBalanceOptimizer", "GPUFastMathOptimizer")
        )
        report = session.report_for(request)
        assert [item.optimizer for item in report.advice] in (
            ["GPUWarpBalanceOptimizer", "GPUFastMathOptimizer"],
            ["GPUFastMathOptimizer", "GPUWarpBalanceOptimizer"],
        )

    def test_unknown_optimizer_is_captured(self, session):
        request = request_for_case(SUBSET[0], optimizers=("NoSuchOptimizer",))
        result = session.advise(request)
        assert not result.ok
        assert "NoSuchOptimizer" in result.error

    def test_per_request_sample_period(self, session):
        fine = session.report_for(request_for_case(SUBSET[0], sample_period=4))
        assert fine.profile.statistics.sample_period == 4
        coarse = session.report_for(request_for_case(SUBSET[0]))
        assert coarse.profile.statistics.sample_period == 8
        assert fine.profile.total_samples > coarse.profile.total_samples


class TestSimulationScope:
    """Session- and request-level simulation_scope plumbing.

    The expensive whole-GPU engine itself is covered in
    ``tests/sampling/test_gpu.py`` and the acceptance test; these tests
    exercise stage selection, result stamping and pool-config propagation
    without running multi-wave registry simulations.
    """

    def test_session_rejects_unknown_scope(self):
        with pytest.raises(ApiValidationError):
            AdvisingSession(simulation_scope="per_warp")

    def test_default_scope_is_single_wave(self, session):
        assert session.simulation_scope == "single_wave"
        result = session.advise(request_for_case(SUBSET[0]))
        assert result.simulation_scope == "single_wave"
        assert result.report.profile.statistics.simulation_scope == "single_wave"

    def test_request_scope_overrides_session(self, session):
        request = request_for_case(SUBSET[0], simulation_scope="whole_gpu")
        stage = session._profile_stage_for(request)
        assert stage is not session.profile_stage
        assert stage.simulation_scope == "whole_gpu"
        # The dedicated stage is memoized per (period, cached, scope).
        assert session._profile_stage_for(request) is stage

    def test_whole_gpu_session_stamps_results(self):
        whole = AdvisingSession(sample_period=8, simulation_scope="whole_gpu")
        assert whole.profile_stage.simulation_scope == "whole_gpu"
        result = whole.advise(request_for_case("no/such:case"))
        assert result.simulation_scope == "whole_gpu"

    def test_pool_config_carries_scope(self):
        whole = AdvisingSession(sample_period=8, jobs=2, simulation_scope="whole_gpu")
        config = whole._pool_config()
        assert config["simulation_scope"] == "whole_gpu"

    def test_profile_source_reports_the_profiles_recorded_scope(
        self, session, toy_cubin, toy_workload
    ):
        from repro.sampling.profiler import Profiler
        from repro.sampling.sample import LaunchConfig

        # A tiny grid-limited launch keeps the whole-GPU collection cheap.
        profiled = Profiler(sample_period=32, simulation_scope="whole_gpu").profile(
            toy_cubin, "toy_kernel", LaunchConfig(2, 64), toy_workload
        )
        request = AdvisingRequest(
            source="profile", profile=profiled.profile, cubin=toy_cubin
        )
        result = session.advise(request)  # session default is single_wave
        assert result.ok
        # Nothing was simulated: the result reports the scope the profile
        # was actually collected with, not the session default.
        assert result.simulation_scope == "whole_gpu"

    def test_profile_source_reports_the_profiles_sample_period(self):
        profiled = AdvisingSession(sample_period=32).profile(
            request_for_case("rodinia/hotspot:strength_reduction")
        )
        request = AdvisingRequest(
            source="profile", profile=profiled.profile, cubin=profiled.cubin
        )
        result = AdvisingSession(sample_period=8).advise(request)
        assert result.ok, result.error
        assert result.report.profile.statistics.sample_period == 32
        assert result.sample_period == 32


class TestProfileCache:
    @pytest.mark.parametrize("scope", ["single_wave", "whole_gpu"])
    @pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
    def test_replay_is_byte_identical_to_a_fresh_simulation(
        self, tmp_path, toy_cubin, toy_workload, scope, memory_model
    ):
        """Why no request setting chooses whether to use the cache: a
        replayed profile gives the same report bytes as simulating."""
        from repro.sampling.sample import LaunchConfig

        request = AdvisingRequest(
            source="binary", cubin=toy_cubin, kernel="toy_kernel",
            config=LaunchConfig(2, 64), workload=toy_workload,
            simulation_scope=scope, memory_model=memory_model,
        )
        fresh = AdvisingSession().report_for(request)
        cold = AdvisingSession(cache=str(tmp_path)).report_for(request)
        warm_session = AdvisingSession(cache=str(tmp_path))
        warm = warm_session.report_for(request)
        assert (warm_session.cache.hits, warm_session.cache.misses) == (1, 0)

        def dump(report):
            return json.dumps(report.to_dict(), sort_keys=True)

        assert dump(cold) == dump(fresh)
        assert dump(warm) == dump(fresh)

    def test_cache_populates_and_replays(self, tmp_path):
        session = AdvisingSession(sample_period=8, cache=str(tmp_path))
        cold = session.report_for(request_for_case(SUBSET[0]))
        assert session.cache.stores > 0
        warm_session = AdvisingSession(sample_period=8, cache=str(tmp_path))
        warm = warm_session.report_for(request_for_case(SUBSET[0]))
        assert warm_session.cache.hits > 0
        assert cold.to_dict() == warm.to_dict()

    def test_unjsonable_workload_value_still_keys_the_cache(
        self, tmp_path, toy_cubin, toy_config
    ):
        """The key digests such a value by its repr, so the advise succeeds
        and its second run replays."""
        session = AdvisingSession(sample_period=8, cache=str(tmp_path))
        request = _fraction_request(toy_cubin, toy_config)
        assert session.advise(request).ok
        assert session.advise(request).ok
        assert (session.cache.stores, session.cache.hits) == (1, 1)


class TestBatchModes:
    def test_advise_many_preserves_order(self, session):
        results = session.advise_many([request_for_case(name) for name in SUBSET])
        assert [result.label for result in results] == SUBSET
        assert [result.index for result in results] == [0, 1]

    def test_pool_stream_yields_every_result(self):
        pooled = AdvisingSession(sample_period=8, jobs=2)
        results = list(pooled.stream([request_for_case(name) for name in SUBSET]))
        assert sorted(result.index for result in results) == [0, 1]
        assert all(result.ok for result in results)

    def test_pool_results_equal_inline_results(self, session):
        requests = [request_for_case(name) for name in SUBSET]
        inline = session.advise_many(requests)
        pooled = AdvisingSession(sample_period=8, jobs=2).advise_many(requests)
        for left, right in zip(inline, pooled):
            assert left.to_dict()["report"] == right.to_dict()["report"]

    def test_pool_error_capture(self):
        pooled = AdvisingSession(sample_period=8, jobs=2)
        results = pooled.advise_many(
            [request_for_case("no/such:case"), request_for_case(SUBSET[0])]
        )
        assert not results[0].ok and "KeyError" in results[0].error
        assert results[1].ok

    def test_pool_failure_reports_the_configured_knobs(self, monkeypatch):
        monkeypatch.setattr(session_module, "_pool_advise", _dying_worker)
        pooled = AdvisingSession(
            sample_period=8, jobs=2,
            simulation_scope="whole_gpu", memory_model="hierarchy",
        )
        requests = [
            request_for_case(SUBSET[0]),
            request_for_case(SUBSET[1], memory_model="flat"),
        ]
        results = pooled.advise_many(requests)
        assert all("BrokenProcessPool" in result.error for result in results)
        assert [(result.simulation_scope, result.memory_model) for result in results] == [
            ("whole_gpu", "hierarchy"),
            ("whole_gpu", "flat"),
        ]

    def test_progress_events_come_in_adjacent_pairs(self):
        events = []
        pooled = AdvisingSession(sample_period=8, jobs=2)
        pooled.advise_many(
            [request_for_case(name) for name in SUBSET], progress=events.append
        )
        assert len(events) == 2 * len(SUBSET)
        for start, finish in zip(events[::2], events[1::2]):
            assert start.status == "start"
            assert finish.status in ("done", "error")
            assert start.step == finish.step
            assert start.index == finish.index
            assert start.total == finish.total == len(SUBSET)

    def test_unserializable_request_falls_back_inline(self, toy_cubin, toy_config):
        requests = [_fraction_request(toy_cubin, toy_config), request_for_case(SUBSET[0])]
        pooled = AdvisingSession(sample_period=8, jobs=2)
        assert pooled._serialized(requests) is None
        results = pooled.advise_many(requests)
        assert all(result.ok for result in results)

    def test_ad_hoc_imbalanced_case_runs_in_the_pool(self, session):
        """Per-warp trip counts are data, so an ad-hoc nw clone crosses the
        pool as a binary request and its report equals the inline one."""
        import dataclasses

        from repro.workloads.registry import case_by_name

        clone = dataclasses.replace(case_by_name("rodinia/nw:warp_balance"), name="custom/nw")
        request = request_for_case(clone)
        assert request.source == "binary"
        pooled = AdvisingSession(sample_period=8, jobs=2)
        assert pooled._serialized([request]) is not None
        results = pooled.advise_many([request, request_for_case(SUBSET[1])])
        assert all(result.ok for result in results)
        assert results[0].report.to_dict() == session.report_for(request).to_dict()

    def test_ampere_sweep_completes(self):
        ampere = AdvisingSession(architecture="sm_80", sample_period=8)
        results = ampere.advise_many([request_for_case(name) for name in SUBSET])
        assert all(result.ok for result in results)
        assert {result.arch_flag for result in results} == {"sm_80"}

    def test_custom_optimizer_instances_run_inline(self):
        from repro.optimizers.registry import default_optimizers

        session = AdvisingSession(
            sample_period=8, jobs=2, optimizers=default_optimizers()[:3]
        )
        assert session._pool_config() is None
        results = session.advise_many([request_for_case(name) for name in SUBSET])
        assert all(result.ok for result in results)
        assert all(len(result.report.advice) == 3 for result in results)


class TestPoolWorker:
    def test_batch_and_daemon_configs_share_one_worker_session(self, monkeypatch):
        from repro.service import ServiceConfig

        monkeypatch.setattr(session_module, "_WORKER_SESSIONS", {})
        knobs = {"sample_period": 4, "simulation_scope": "whole_gpu",
                 "memory_model": "hierarchy"}
        names = ["GPULoopUnrollingOptimizer", "GPUWarpBalanceOptimizer"]
        batch = AdvisingSession(jobs=2, optimizers=names, **knobs)._pool_config()
        served = ServiceConfig(optimizer_names=tuple(names), **knobs).primitives()
        session = session_module._worker_session(batch)
        assert session_module._worker_session(served) is session
        assert session.sample_period == 4
        assert [optimizer.name for optimizer in session.optimizers] == names

    def test_pool_advise_builds_one_session_per_process(self, monkeypatch):
        built = []
        build = session_module._session_from_primitives

        def counting_build(config):
            built.append(config)
            return build(config)

        monkeypatch.setattr(session_module, "_WORKER_SESSIONS", {})
        monkeypatch.setattr(session_module, "_session_from_primitives", counting_build)
        config = AdvisingSession(sample_period=8, jobs=2)._pool_config()
        payload = request_for_case("no/such:case").to_dict()
        outcomes = [session_module._pool_advise(config, payload, index)
                    for index in (0, 1)]
        assert built == [config]
        results = [AdvisingResult.from_dict(outcome["result"]) for outcome in outcomes]
        assert [result.index for result in results] == [0, 1]
        assert not any(result.ok for result in results)


class TestJsonl:
    def test_dump_and_load_jsonl(self, session):
        results = session.advise_many([request_for_case(name) for name in SUBSET])
        lines = list(dump_jsonl(results))
        assert len(lines) == len(SUBSET)
        reloaded = list(load_jsonl(lines))
        assert [r.to_dict() for r in reloaded] == [r.to_dict() for r in results]

    def test_jsonl_lines_are_single_line_json(self, session):
        result = session.advise(request_for_case(SUBSET[0]))
        (line,) = dump_jsonl([result])
        assert "\n" not in line
        assert json.loads(line)["label"] == SUBSET[0]


class TestSessionValidation:
    def test_bad_sample_period(self):
        with pytest.raises(ApiValidationError):
            AdvisingSession(sample_period=0)

    def test_bad_jobs(self):
        with pytest.raises(ApiValidationError):
            AdvisingSession(jobs=0)

    def test_unknown_optimizer_name(self):
        with pytest.raises(ApiValidationError):
            AdvisingSession(optimizers=["NoSuchOptimizer"])

    def test_empty_optimizer_list(self):
        with pytest.raises(ApiValidationError):
            AdvisingSession(optimizers=[])

    def test_architecture_by_flag(self):
        assert AdvisingSession(architecture="sm_80").arch_flag == "sm_80"


class TestResultSchema:
    def test_result_round_trip_is_byte_identical(self, session):
        result = session.advise(request_for_case(SUBSET[0]))
        dumped = result.to_dict()
        reloaded = AdvisingResult.from_dict(json.loads(json.dumps(dumped)))
        assert json.dumps(dumped, sort_keys=True) == json.dumps(
            reloaded.to_dict(), sort_keys=True
        )

    def test_error_result_round_trips(self, session):
        result = session.advise(request_for_case("no/such:case"))
        reloaded = AdvisingResult.from_dict(result.to_dict())
        assert not reloaded.ok
        assert reloaded.error == result.error
