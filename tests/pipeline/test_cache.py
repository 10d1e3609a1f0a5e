"""Tests for the on-disk profile cache and the cached profiling stage."""

import pytest

from repro.arch.machine import TuringLike, VoltaV100
from repro.pipeline.cache import ProfileCache, profile_cache_key
from repro.pipeline.stages import ProfileRequest, ProfileStage
from repro.sampling.sample import LaunchConfig
from repro.sampling.vector import VectorSMSimulator


@pytest.fixture
def key_inputs(toy_cubin, toy_config, toy_workload):
    return dict(
        cubin=toy_cubin,
        kernel_name="toy_kernel",
        config=toy_config,
        workload=toy_workload,
        architecture=VoltaV100,
        sample_period=8,
    )


class TestCacheKey:
    def test_key_is_stable(self, key_inputs):
        assert profile_cache_key(**key_inputs) == profile_cache_key(**key_inputs)

    def test_sample_period_invalidates(self, key_inputs):
        baseline = profile_cache_key(**key_inputs)
        assert profile_cache_key(**{**key_inputs, "sample_period": 16}) != baseline

    def test_architecture_invalidates(self, key_inputs):
        baseline = profile_cache_key(**key_inputs)
        assert (
            profile_cache_key(**{**key_inputs, "architecture": TuringLike}) != baseline
        )

    def test_launch_config_invalidates(self, key_inputs):
        baseline = profile_cache_key(**key_inputs)
        bigger = key_inputs["config"].with_blocks(key_inputs["config"].grid_blocks * 2)
        assert profile_cache_key(**{**key_inputs, "config": bigger}) != baseline

    def test_workload_trip_counts_invalidate(self, key_inputs):
        def key(trips):
            workload = key_inputs["workload"].copy(loop_trip_counts={12: trips})
            return profile_cache_key(**{**key_inputs, "workload": workload})

        baseline = profile_cache_key(**key_inputs)
        keys = {baseline, key(24), key((20, 3)), key((3, 20)), key(20)}
        assert len(keys) == 5
        assert key((20, 3)) == key(tuple([20, 3]))

    def test_simulation_scope_invalidates(self, key_inputs):
        baseline = profile_cache_key(**key_inputs)
        whole = profile_cache_key(**{**key_inputs, "simulation_scope": "whole_gpu"})
        assert whole != baseline
        assert profile_cache_key(
            **{**key_inputs, "simulation_scope": "single_wave"}
        ) == baseline

    def test_max_cycles_invalidates(self, key_inputs):
        baseline = profile_cache_key(**key_inputs)
        assert profile_cache_key(**{**key_inputs, "max_cycles": 10_000}) != baseline

    def test_set_state_digests_independent_of_hash_seed(self):
        """Set fields digest through the sorted wire form, so a key computed
        in another process, under another hash seed, is the same key."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.arch.machine import VoltaV100\n"
            "from repro.pipeline.cache import profile_cache_key\n"
            "from repro.workloads.registry import case_by_name\n"
            "setup = case_by_name('rodinia/gaussian:thread_increase').build_baseline()\n"
            "workload = setup.workload.copy(uncoalesced_lines={13, 14, 99})\n"
            "print(profile_cache_key(setup.cubin, setup.kernel, setup.config,\n"
            "                        workload, VoltaV100, 8))\n"
        )
        digests = set()
        for seed in ("0", "1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            digests.add(run.stdout)
        assert len(digests) == 1

    def test_default_max_cycles_matches_the_stage_key(
        self, key_inputs, tmp_path, toy_cubin, toy_config, toy_workload
    ):
        """The public-API key with no max_cycles must find stage-written entries."""
        stage = ProfileStage(sample_period=8, cache=tmp_path)
        request = ProfileRequest(
            cubin=toy_cubin, kernel="toy_kernel", config=toy_config, workload=toy_workload
        )
        stage.run(request)
        assert profile_cache_key(**key_inputs) in stage.cache

    def test_binary_invalidates(self, key_inputs, toy_cubin):
        from dataclasses import replace

        baseline = profile_cache_key(**key_inputs)
        relabeled = replace(toy_cubin, module_name="other_module")
        assert profile_cache_key(**{**key_inputs, "cubin": relabeled}) != baseline

    def test_a_cubin_is_encoded_once_per_object(self, key_inputs, toy_cubin, monkeypatch):
        from dataclasses import replace

        from repro.cubin.binary import Cubin

        encodings = []
        to_dict = Cubin.to_dict

        def counted(cubin):
            encodings.append(cubin)
            return to_dict(cubin)

        monkeypatch.setattr(Cubin, "to_dict", counted)
        twin = replace(toy_cubin)
        first = profile_cache_key(**{**key_inputs, "cubin": twin})
        assert profile_cache_key(**{**key_inputs, "cubin": twin, "sample_period": 4}) != first
        assert profile_cache_key(**{**key_inputs, "cubin": twin}) == first
        assert encodings == [twin]
        # A copy is a new object: it encodes its own token, to the same key.
        assert profile_cache_key(**{**key_inputs, "cubin": replace(twin)}) == first
        assert len(encodings) == 2


class TestProfileCache:
    def test_round_trip(self, tmp_path, toy_profiled):
        cache = ProfileCache(tmp_path)
        cache.put("k1", toy_profiled.profile)
        restored = cache.get("k1")
        assert restored is not None
        assert restored.to_json() == toy_profiled.profile.to_json()
        assert cache.hits == 1 and cache.stores == 1

    def test_miss_and_clear(self, tmp_path, toy_profiled):
        cache = ProfileCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.misses == 1
        cache.put("k1", toy_profiled.profile)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert "k1" not in cache

    def test_torn_entry_is_a_miss(self, tmp_path, toy_profiled):
        cache = ProfileCache(tmp_path)
        cache.put("k1", toy_profiled.profile)
        cache.path_for("k1").write_text("{not json")
        assert cache.get("k1") is None

    def test_wrong_shape_json_is_a_miss(self, tmp_path, toy_profiled):
        """Valid JSON of the wrong shape must not crash the read path."""
        cache = ProfileCache(tmp_path)
        for corrupt in ("null", "[1,2,3]", '{"kernel": 7}', '"just a string"'):
            cache.put("k1", toy_profiled.profile)
            cache.path_for("k1").write_text(corrupt)
            assert cache.get("k1") is None


class TestProfileStageCaching:
    def test_warm_run_skips_the_simulator(
        self, tmp_path, toy_cubin, toy_config, toy_workload, monkeypatch
    ):
        stage = ProfileStage(sample_period=8, cache=tmp_path)
        request = ProfileRequest(
            cubin=toy_cubin, kernel="toy_kernel", config=toy_config, workload=toy_workload
        )
        cold = stage.run(request)
        assert cold.simulation is not None

        def explode(self, *args, **kwargs):
            raise AssertionError("simulator invoked on a warm cache")

        monkeypatch.setattr(VectorSMSimulator, "simulate", explode)
        warm = stage.run(request)
        assert warm.simulation is None
        assert warm.profile.to_json() == cold.profile.to_json()
        assert warm.kernel_cycles == cold.kernel_cycles
        assert warm.occupancy == cold.occupancy
        assert stage.cache.hits == 1

    def test_changed_sample_period_misses(
        self, tmp_path, toy_cubin, toy_config, toy_workload
    ):
        request = ProfileRequest(
            cubin=toy_cubin, kernel="toy_kernel", config=toy_config, workload=toy_workload
        )
        ProfileStage(sample_period=8, cache=tmp_path).run(request)
        other = ProfileStage(sample_period=16, cache=tmp_path)
        other.run(request)
        assert other.cache.hits == 0
        assert other.cache.misses == 1

    def test_keep_samples_profiler_never_replays(
        self, tmp_path, toy_cubin, toy_config, toy_workload
    ):
        """keep_samples wants raw samples, which only the simulator has."""
        from repro.sampling.profiler import Profiler

        request = ProfileRequest(
            cubin=toy_cubin, kernel="toy_kernel", config=toy_config, workload=toy_workload
        )
        ProfileStage(sample_period=8, cache=tmp_path).run(request)
        keeper = ProfileStage(
            profiler=Profiler(sample_period=8, keep_samples=True), cache=tmp_path
        )
        kept = keeper.run(request)
        assert kept.simulation is not None
        assert kept.simulation.samples
        # Repeated sample-keeping runs must not rewrite the identical entry.
        keeper.run(request)
        assert keeper.cache.stores == 0

    def test_changed_max_cycles_misses(
        self, tmp_path, toy_cubin, toy_config, toy_workload
    ):
        """A truncated simulation must never be replayed as a full one."""
        from repro.sampling.profiler import Profiler

        request = ProfileRequest(
            cubin=toy_cubin, kernel="toy_kernel", config=toy_config, workload=toy_workload
        )
        ProfileStage(sample_period=8, cache=tmp_path).run(request)
        truncated = ProfileStage(
            profiler=Profiler(sample_period=8, max_cycles=10_000), cache=tmp_path
        )
        truncated.run(request)
        assert truncated.cache.hits == 0
        assert truncated.cache.misses == 1

    def test_changed_simulation_scope_misses(
        self, tmp_path, toy_cubin, toy_workload
    ):
        """A single-wave profile must never replay as a whole-GPU one."""
        import dataclasses

        from repro.arch.machine import VoltaV100 as V100
        from repro.sampling.profiler import Profiler

        tiny = dataclasses.replace(V100, num_sms=2)
        config = LaunchConfig(grid_blocks=6, threads_per_block=64)
        request = ProfileRequest(
            cubin=toy_cubin, kernel="toy_kernel", config=config, workload=toy_workload
        )
        single = ProfileStage(profiler=Profiler(tiny, sample_period=8), cache=tmp_path)
        single.run(request)
        whole = ProfileStage(
            profiler=Profiler(tiny, sample_period=8, simulation_scope="whole_gpu"),
            cache=tmp_path,
        )
        first = whole.run(request)
        assert whole.cache.hits == 0
        assert whole.cache.misses == 1
        assert first.profile.statistics.simulation_scope == "whole_gpu"
        # Both entries now coexist; each scope replays only its own.
        assert len(whole.cache) == 2
        replay = whole.run(request)
        assert replay.simulation is None
        assert replay.profile.statistics.simulation_scope == "whole_gpu"
        single_replay = single.run(request)
        assert single_replay.profile.statistics.simulation_scope == "single_wave"
