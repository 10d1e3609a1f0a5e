"""Tests for the on-disk profile cache and the cached profiling stage."""

import pytest

from repro.arch.machine import TuringLike, VoltaV100
from repro.pipeline.cache import ProfileCache, profile_cache_key
from repro.pipeline.stages import ProfileRequest, ProfileStage
from repro.sampling.sample import LaunchConfig
from repro.sampling.vector import VectorSMSimulator
from repro.sampling.workload import WorkloadSpec


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
        baseline = profile_cache_key(**key_inputs)
        changed = key_inputs["workload"].copy(loop_trip_counts={12: 24})
        assert profile_cache_key(**{**key_inputs, "workload": changed}) != baseline

    def test_callable_trip_counts_digest_by_behaviour(self, key_inputs):
        ramp = key_inputs["workload"].copy(
            loop_trip_counts={12: lambda warp, total: 4 + warp}
        )
        flat = key_inputs["workload"].copy(
            loop_trip_counts={12: lambda warp, total: 4}
        )
        ramp_key = profile_cache_key(**{**key_inputs, "workload": ramp})
        flat_key = profile_cache_key(**{**key_inputs, "workload": flat})
        assert ramp_key != flat_key
        # The same lambda source digests identically across evaluations.
        ramp_again = key_inputs["workload"].copy(
            loop_trip_counts={12: lambda warp, total: 4 + warp}
        )
        assert profile_cache_key(**{**key_inputs, "workload": ramp_again}) == ramp_key

    def test_callable_default_arguments_invalidate(self, key_inputs):
        """Behaviour bound via default args (the families.py idiom) must digest."""

        def make_trip(count):
            def trip(warp, total, _count=count):
                return _count

            return trip

        big = key_inputs["workload"].copy(loop_trip_counts={12: make_trip(400)})
        small = key_inputs["workload"].copy(loop_trip_counts={12: make_trip(4)})
        assert profile_cache_key(
            **{**key_inputs, "workload": big}
        ) != profile_cache_key(**{**key_inputs, "workload": small})

    def test_nested_code_objects_digest_deterministically(self, key_inputs):
        """No repr() fallback: nested lambdas must not digest by memory address."""
        first = key_inputs["workload"].copy(
            loop_trip_counts={12: lambda warp, total: (lambda: warp + 1)()}
        )
        second = key_inputs["workload"].copy(
            loop_trip_counts={12: lambda warp, total: (lambda: warp + 1)()}
        )
        assert profile_cache_key(
            **{**key_inputs, "workload": first}
        ) == profile_cache_key(**{**key_inputs, "workload": second})

    def test_lambdas_differing_only_in_globals_invalidate(self, key_inputs):
        """max and min compile to identical bytecode; co_names must digest."""
        from repro.pipeline.cache import _describe

        assert _describe(lambda n: max(n, 10)) != _describe(lambda n: min(n, 10))
        upper = key_inputs["workload"].copy(
            loop_trip_counts={12: lambda warp, total: max(warp, 10)}
        )
        lower = key_inputs["workload"].copy(
            loop_trip_counts={12: lambda warp, total: min(warp, 10)}
        )
        assert profile_cache_key(
            **{**key_inputs, "workload": upper}
        ) != profile_cache_key(**{**key_inputs, "workload": lower})

    def test_callable_instances_digest_by_state_not_address(self, key_inputs):
        class Trip:
            def __init__(self, count):
                self.count = count

            def __call__(self, warp, total):
                return self.count

        four = key_inputs["workload"].copy(loop_trip_counts={12: Trip(4)})
        eight = key_inputs["workload"].copy(loop_trip_counts={12: Trip(8)})
        four_again = key_inputs["workload"].copy(loop_trip_counts={12: Trip(4)})
        four_key = profile_cache_key(**{**key_inputs, "workload": four})
        assert four_key != profile_cache_key(**{**key_inputs, "workload": eight})
        # Distinct instances with equal state share a key: no memory address
        # leaks into the digest.
        assert four_key == profile_cache_key(**{**key_inputs, "workload": four_again})

    def test_callable_instance_helper_methods_invalidate(self, key_inputs):
        """__call__ delegating to a helper must digest the helper's code."""

        def make_trip(helper_body):
            class Trip:
                def __call__(self, warp, total):
                    return self._compute(warp)

                _compute = helper_body

            return Trip()

        flat = key_inputs["workload"].copy(
            loop_trip_counts={12: make_trip(lambda self, warp: 4)}
        )
        ramp = key_inputs["workload"].copy(
            loop_trip_counts={12: make_trip(lambda self, warp: warp * 2)}
        )
        assert profile_cache_key(
            **{**key_inputs, "workload": flat}
        ) != profile_cache_key(**{**key_inputs, "workload": ramp})

    def test_bound_methods_digest_receiver_state(self, key_inputs):
        class Trips:
            def __init__(self, count):
                self.count = count

            def trip(self, warp, total):
                return self.count

        four = key_inputs["workload"].copy(loop_trip_counts={12: Trips(4).trip})
        eight = key_inputs["workload"].copy(loop_trip_counts={12: Trips(8).trip})
        assert profile_cache_key(
            **{**key_inputs, "workload": four}
        ) != profile_cache_key(**{**key_inputs, "workload": eight})

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

    def test_self_referential_closures_digest_without_recursing(self, key_inputs):
        def make_recursive():
            def trip(warp, total):
                return 1 if warp <= 0 else trip(warp - 1, total)

            return trip

        cyclic = key_inputs["workload"].copy(loop_trip_counts={12: make_recursive()})
        cyclic_again = key_inputs["workload"].copy(
            loop_trip_counts={12: make_recursive()}
        )
        cyclic_key = profile_cache_key(**{**key_inputs, "workload": cyclic})
        assert cyclic_key == profile_cache_key(
            **{**key_inputs, "workload": cyclic_again}
        )

    def test_builtin_callables_have_addressless_descriptions(self):
        from repro.pipeline.cache import _describe

        assert _describe(max) == _describe(max)
        assert "0x" not in _describe(max)

    def test_bound_c_methods_digest_container_contents(self):
        """{0: 4}.get and {0: 8}.get must not share a description."""
        from repro.pipeline.cache import _describe

        assert _describe({0: 4}.get) != _describe({0: 8}.get)
        assert _describe({0: 4}.get) == _describe({0: 4}.get)

    def test_dicts_with_object_keys_digest_by_content_order(self):
        """Dict items must order by described key, not address-bearing repr."""
        from repro.pipeline.cache import _describe

        class Key:
            def __init__(self, tag):
                self.tag = tag

        forward = {Key("a"): 1, Key("b"): 2}
        backward = {Key("b"): 2, Key("a"): 1}
        assert _describe(forward) == _describe(backward)
        assert "0x" not in _describe(forward)

    def test_dataclass_receivers_digest_addresslessly(self):
        """__dataclass_fields__ reprs embed dataclasses.MISSING's address."""
        from dataclasses import dataclass

        from repro.pipeline.cache import _describe

        @dataclass
        class Cfg:
            count: int = 4

            def trips(self, warp, total):
                return self.count

        digest = _describe(Cfg(4).trips)
        assert "0x" not in digest
        assert digest == _describe(Cfg(4).trips)
        assert digest != _describe(Cfg(8).trips)

    def test_set_state_digests_independent_of_hash_seed(self):
        """Raw pickle bytes of a str set vary with PYTHONHASHSEED; the
        structural description must not."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.pipeline.cache import _describe\n"
            "class Tagged:\n"
            "    def __init__(self):\n"
            "        self.tags = {'alpha', 'beta', 'gamma', 'delta'}\n"
            "    def trip(self, warp, total):\n"
            "        return len(self.tags)\n"
            "print(_describe(Tagged().trip))\n"
        )
        digests = set()
        for seed in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            digests.add(run.stdout)
        assert len(digests) == 1
        assert "0x" not in digests.pop()

    def test_c_level_receiver_state_digests_via_pickle(self):
        """random.Random keeps its seed state in the C base, invisible to
        __dict__/slots — differently seeded receivers must not collide."""
        import random

        from repro.pipeline.cache import _describe

        assert _describe(random.Random(1).randint) != _describe(random.Random(2).randint)
        assert _describe(random.Random(1).randint) == _describe(random.Random(1).randint)

    def test_slot_backed_instances_digest_inherited_slots(self):
        from repro.pipeline.cache import _describe

        class Base:
            __slots__ = ("count",)

        class Trip(Base):
            __slots__ = ()

            def __call__(self, warp, total):
                return self.count

        four, eight = Trip(), Trip()
        four.count, eight.count = 4, 8
        assert _describe(four) != _describe(eight)

    def test_closed_over_plain_objects_digest_by_state_not_address(self):
        from repro.pipeline.cache import _describe

        class Params:
            def __init__(self, count):
                self.count = count

        def make_trip(params):
            return lambda warp, total: params.count

        four = _describe(make_trip(Params(4)))
        assert "0x" not in four
        assert four == _describe(make_trip(Params(4)))
        assert four != _describe(make_trip(Params(8)))

    def test_lru_cache_wrappers_digest_the_wrapped_code(self):
        import functools

        from repro.pipeline.cache import _describe

        flat = functools.lru_cache(maxsize=None)(lambda warp: 4)
        ramp = functools.lru_cache(maxsize=None)(lambda warp: warp * 2)
        assert _describe(flat) != _describe(ramp)

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

    def test_partials_digest_by_arguments(self, key_inputs):
        import functools

        def trip(count, warp, total):
            return count

        four = key_inputs["workload"].copy(
            loop_trip_counts={12: functools.partial(trip, 4)}
        )
        eight = key_inputs["workload"].copy(
            loop_trip_counts={12: functools.partial(trip, 8)}
        )
        four_again = key_inputs["workload"].copy(
            loop_trip_counts={12: functools.partial(trip, 4)}
        )
        four_key = profile_cache_key(**{**key_inputs, "workload": four})
        assert four_key != profile_cache_key(**{**key_inputs, "workload": eight})
        assert four_key == profile_cache_key(**{**key_inputs, "workload": four_again})

    def test_binary_invalidates(self, key_inputs, toy_cubin):
        from dataclasses import replace

        baseline = profile_cache_key(**key_inputs)
        relabeled = replace(toy_cubin, module_name="other_module")
        assert profile_cache_key(**{**key_inputs, "cubin": relabeled}) != baseline


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
