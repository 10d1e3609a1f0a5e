"""Tests for the benchmark-case registry and the synthetic kernels."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.api.request import request_for_case
from repro.optimizers.registry import default_optimizers
from repro.sampling.workload import WorkloadSpec
from repro.workloads.registry import (
    all_cases,
    application_cases,
    case_by_name,
    case_names,
    is_registry_case,
    resolve_case,
    rodinia_cases,
)


class TestLazyRegistryImport:
    def test_import_repro_does_not_load_the_workload_registry(self):
        """`import repro` (and every spawned pool worker) must not pay for
        constructing the whole benchmark registry."""
        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro; "
                "print(sum(m.startswith('repro.workloads') for m in sys.modules))",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert loaded.stdout.strip() == "0"


def test_registry_reproduces_all_26_table3_rows():
    cases = all_cases()
    assert len(cases) == 26
    assert len(rodinia_cases()) == 19
    assert len(application_cases()) == 7


def test_case_ids_are_unique():
    names = case_names()
    assert len(names) == len(set(names))


def test_every_case_references_a_real_optimizer():
    optimizer_names = {optimizer.name for optimizer in default_optimizers()}
    for case in all_cases():
        assert case.optimizer_name in optimizer_names


def test_paper_numbers_recorded_for_every_case():
    for case in all_cases():
        assert case.paper_achieved_speedup >= 1.0
        assert case.paper_estimated_speedup >= 1.0
        assert case.paper_original_time


def test_resolve_case_accepts_ids_and_case_objects():
    case = case_by_name("rodinia/gaussian:thread_increase")
    assert resolve_case("rodinia/gaussian:thread_increase") is case
    assert resolve_case(case) is case
    with pytest.raises(KeyError):
        resolve_case("not-a-benchmark")


def test_only_the_registry_objects_are_registry_cases():
    case = case_by_name("rodinia/gaussian:thread_increase")
    assert is_registry_case(case)
    # An equal-valued copy is ad hoc: it cannot travel by case_id.
    assert not is_registry_case(dataclasses.replace(case))
    assert not is_registry_case(dataclasses.replace(case, name="custom/clone"))


def test_lookup_by_id_name_and_kernel():
    assert case_by_name("rodinia/hotspot:strength_reduction").kernel == "calculate_temp"
    assert case_by_name("rodinia/gaussian").optimization == "Thread Increase"
    assert case_by_name("Fan2").name == "rodinia/gaussian"
    with pytest.raises(KeyError):
        case_by_name("not-a-benchmark")


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_baseline_and_optimized_setups_build(case):
    """Every Table 3 row provides buildable baseline and optimized kernels."""
    baseline = case.build_baseline()
    optimized = case.build_optimized()
    assert case.kernel in baseline.cubin.functions
    assert case.kernel in optimized.cubin.functions
    assert baseline.config.grid_blocks > 0
    assert baseline.cubin.function(case.kernel).instructions
    # The optimized variant differs from the baseline in code, workload or
    # launch configuration (otherwise there is nothing to measure).
    differs = (
        [i.render() for i in baseline.cubin.function(case.kernel).instructions]
        != [i.render() for i in optimized.cubin.function(case.kernel).instructions]
        or baseline.config != optimized.config
        or baseline.workload.loop_trip_counts.keys() != optimized.workload.loop_trip_counts.keys()
        or baseline.workload.uncoalesced_lines != optimized.workload.uncoalesced_lines
        or any(
            baseline.workload.trip_count(line, 0) != optimized.workload.trip_count(line, 0)
            or baseline.workload.trip_count(line, 1) != optimized.workload.trip_count(line, 1)
            for line in baseline.workload.loop_trip_counts
        )
    )
    assert differs, f"optimized variant of {case.case_id} is identical to the baseline"


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_workloads_round_trip_through_json(case):
    """Every workload is plain data: it crosses the wire and comes back equal,
    so ad-hoc copies of any case can run in a process pool or a daemon."""
    for setup in (case.build_baseline(), case.build_optimized()):
        dumped = setup.workload.to_dict()
        assert WorkloadSpec.from_dict(json.loads(json.dumps(dumped))) == setup.workload
        assert WorkloadSpec.from_dict(dumped).to_dict() == dumped


@pytest.mark.parametrize("case", rodinia_cases()[:4], ids=lambda case: case.case_id)
def test_baseline_kernels_profile_cleanly(case, session):
    profiled = session.profile(request_for_case(case))
    assert profiled.profile.total_samples > 0
    assert profiled.simulation.issued_instructions > 0
