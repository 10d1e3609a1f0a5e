"""Registry setups are built once per case object and cannot be changed.

``BenchmarkCase.build_baseline()`` and ``build_optimized()`` hand every
caller the same setup, so everything a setup holds is frozen: the setup,
its binary and functions, and its workload spec.
"""

import collections
import dataclasses
import sys
import threading

import pytest

from repro.cubin.binary import Cubin, Function
from repro.sampling.workload import WorkloadSpec
from repro.workloads.base import KernelSetup
from repro.workloads.registry import case_by_name
from repro.workloads.rodinia import nw


@pytest.fixture
def case():
    """A fresh copy of a registry case, with no setup built yet."""
    return dataclasses.replace(case_by_name("rodinia/nw:warp_balance"))


class TestBuildOnce:
    def test_a_repeat_build_returns_the_same_setup(self, case):
        assert case.build_baseline() is case.build_baseline()
        assert case.build_optimized() is case.build_optimized()
        assert case.build_baseline() is not case.build_optimized()

    def test_each_builder_runs_once_per_variant(self, case, monkeypatch):
        calls = collections.Counter()

        def counted(variant, builder):
            def build():
                calls[variant] += 1
                return builder()
            return build

        for variant in ("baseline", "optimized"):
            monkeypatch.setattr(case, variant, counted(variant, getattr(case, variant)))
        for _ in range(3):
            case.build_baseline()
            case.build_optimized()
        assert calls == {"baseline": 1, "optimized": 1}

    def test_a_replace_clone_builds_its_own_setup(self, case):
        setup = case.build_baseline()
        clone = dataclasses.replace(case)
        assert clone.build_baseline() is not setup
        assert clone.build_baseline() == setup

    def test_racing_first_calls_share_one_setup(self, case):
        """The memo takes no lock: racing first calls may each build, but
        every caller gets the one setup the memo kept."""
        workers = 8
        start = threading.Barrier(workers)
        setups = []

        def build():
            start.wait(timeout=10)
            setups.append(case.build_baseline())

        threads = [threading.Thread(target=build) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(setups) == workers
        assert all(setup is case.build_baseline() for setup in setups)

    def test_the_module_builders_build_fresh_setups(self):
        assert nw.baseline() is not nw.baseline()


def registry_setup() -> KernelSetup:
    return case_by_name("rodinia/nw:warp_balance").build_baseline()


def frozen_parts(setup: KernelSetup) -> dict:
    """Each frozen type a setup holds, by type name."""
    return {
        "KernelSetup": setup,
        "WorkloadSpec": setup.workload,
        "Cubin": setup.cubin,
        "Function": setup.cubin.function(setup.kernel),
    }


class TestFrozen:
    @pytest.mark.parametrize(
        "owner, field",
        [
            ("KernelSetup", "workload"), ("KernelSetup", "kernel"),
            ("WorkloadSpec", "seed"), ("WorkloadSpec", "loop_trip_counts"),
            ("Cubin", "arch_flag"), ("Cubin", "functions"),
            ("Function", "instructions"), ("Function", "registers_per_thread"),
        ],
    )
    def test_assigning_a_field_raises(self, owner, field):
        target = frozen_parts(registry_setup())[owner]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, field, getattr(target, field))

    @pytest.mark.parametrize(
        "owner, field",
        [
            ("WorkloadSpec", "loop_trip_counts"), ("WorkloadSpec", "branch_taken"),
            ("WorkloadSpec", "call_targets"), ("WorkloadSpec", "access_strides"),
            ("Cubin", "functions"),
        ],
    )
    def test_assigning_an_item_of_a_mapping_raises(self, owner, field):
        mapping = getattr(frozen_parts(registry_setup())[owner], field)
        with pytest.raises(TypeError):
            mapping[1] = 1

    def test_sequences_are_immutable(self):
        setup = registry_setup()
        function = setup.cubin.function(setup.kernel)
        assert isinstance(function.instructions, tuple)
        assert isinstance(function.inline_ranges, tuple)
        assert isinstance(setup.workload.uncoalesced_lines, frozenset)

    def test_constructors_copy_their_mutable_arguments(self):
        trips = {3: 4}
        spec = WorkloadSpec(loop_trip_counts=trips, uncoalesced_lines={5})
        trips[3] = 9
        assert spec.loop_trip_counts == {3: 4}
        setup = registry_setup()
        function = setup.cubin.function(setup.kernel)
        functions = {function.name: function}
        cubin = Cubin(arch_flag="sm_70", functions=functions)
        functions.clear()
        assert list(cubin.functions) == [function.name]
        instructions = list(function.instructions)
        rebuilt = Function(function.name, function.visibility, instructions)
        instructions.clear()
        assert rebuilt.instructions == function.instructions
