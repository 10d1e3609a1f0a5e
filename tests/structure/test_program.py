"""Tests for program-structure recovery."""

import dataclasses
import json
import sys
import threading

import pytest

from repro.api.request import AdvisingRequest, request_for_case
from repro.api.session import AdvisingSession
from repro.pipeline.stages import retarget
from repro.sampling.trace import _site_table
from repro.structure import program as program_module
from repro.structure.program import build_program_structure
from repro.workloads.registry import case_by_name

#: A registry case for the tests that advise.
CASE = "rodinia/nw:warp_balance"


def test_structure_contains_all_functions(toy_cubin):
    structure = build_program_structure(toy_cubin)
    assert set(structure.functions) == set(toy_cubin.functions)
    assert [f.name for f in structure.kernels()] == ["toy_kernel"]


def test_loop_recovered_with_header_line(toy_cubin):
    structure = build_program_structure(toy_cubin)
    function = structure.function("toy_kernel")
    loops = function.loops()
    assert len(loops) == 1
    assert loops[0].header_line == 12


def test_location_includes_line_and_loop(toy_cubin, toy_profiled):
    structure = toy_profiled.structure
    function = structure.function("toy_kernel")
    load_offset = function.offsets_for_line(13)[0]
    location = function.location(load_offset)
    assert location.line == 13
    assert location.loop_line == 12
    assert "Line 13" in location.describe()
    assert "Loop at Line 12" in location.describe()


def test_offsets_for_line_and_lines(toy_cubin):
    function = build_program_structure(toy_cubin).function("toy_kernel")
    assert function.offsets_for_line(13)
    assert function.lines() == sorted(function.lines())
    assert 17 in function.lines()


def test_structure_serialization_is_json(toy_cubin):
    structure = build_program_structure(toy_cubin)
    payload = json.loads(structure.to_json())
    assert payload["arch_flag"] == "sm_70"
    kernel = payload["functions"]["toy_kernel"]
    assert kernel["visibility"] == "global"
    assert kernel["loops"][0]["header_line"] == 12
    assert kernel["instruction_count"] == len(toy_cubin.function("toy_kernel").instructions)


# ----------------------------------------------------------------------
# One frozen structure per binary
# ----------------------------------------------------------------------


def count_cfg_builds(monkeypatch) -> list:
    """Count ``build_cfg`` calls, one entry per function analyzed."""
    calls = []
    build_cfg = program_module.build_cfg

    def counted(instructions):
        calls.append(instructions)
        return build_cfg(instructions)

    monkeypatch.setattr(program_module, "build_cfg", counted)
    return calls


def wire_form(result) -> dict:
    payload = result.to_dict()
    del payload["duration"]
    return payload


class TestOneStructurePerBinary:
    def test_a_binary_has_one_structure(self, toy_cubin):
        assert build_program_structure(toy_cubin) is build_program_structure(toy_cubin)

    def test_a_replace_copy_builds_its_own(self, toy_cubin):
        structure = build_program_structure(toy_cubin)
        copy = build_program_structure(dataclasses.replace(toy_cubin))
        assert copy is not structure
        assert copy.to_dict() == structure.to_dict()

    def test_structures_are_frozen(self, toy_cubin):
        structure = build_program_structure(toy_cubin)
        function = structure.function("toy_kernel")
        with pytest.raises(dataclasses.FrozenInstanceError):
            structure.arch_flag = "sm_80"
        with pytest.raises(dataclasses.FrozenInstanceError):
            structure.functions = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            function.cfg = None
        with pytest.raises(TypeError):
            structure.functions["toy_kernel"] = function

    def test_static_facts_are_memoized_on_the_function(self, toy_cubin):
        function = build_program_structure(toy_cubin).function("toy_kernel")
        offset = function.offsets_for_line(13)[0]
        assert function.location(offset) is function.location(offset)
        assert function.slicer is function.slicer
        assert function.slicer.slice_instruction(offset) is (
            function.slicer.slice_instruction(offset)
        )

    def test_a_second_advise_builds_no_cfg(self, monkeypatch):
        session = AdvisingSession(sample_period=8)
        first = session.advise(request_for_case(CASE))
        assert first.ok, first.error
        calls = count_cfg_builds(monkeypatch)
        second = session.advise(request_for_case(CASE))
        assert second.ok, second.error
        assert calls == []
        assert wire_form(second) == wire_form(first)


class TestRetarget:
    def test_one_copy_per_binary_and_flag(self):
        cubin = case_by_name(CASE).build_baseline().cubin
        assert retarget(cubin, "sm_80") is retarget(cubin, "sm_80")
        assert retarget(cubin, "sm_80") is not retarget(cubin, "sm_75")
        assert retarget(cubin, cubin.arch_flag) is cubin
        assert retarget(cubin, "sm_80").arch_flag == "sm_80"

    def test_two_advises_with_an_arch_flag_build_one_structure(self, monkeypatch):
        case = dataclasses.replace(case_by_name(CASE))
        functions = len(case.build_baseline().cubin.functions)
        calls = count_cfg_builds(monkeypatch)
        session = AdvisingSession(sample_period=8)
        results = [
            session.advise(request_for_case(case, arch_flag="sm_80")) for _ in range(2)
        ]
        assert all(result.ok for result in results), results[0].error
        assert len(calls) == functions
        assert wire_form(results[0]) == wire_form(results[1])


@pytest.mark.parametrize("source", ["binary", "profile"])
def test_racing_advises_share_one_structure(source):
    """Eight threads advise one fresh binary on one session, and every
    result matches a serial run.  A ``binary`` request simulates, so the
    threads race on trace planning, and the shared structure must number
    every site once; a ``profile`` request skips the simulation, so they
    race on blame and source locations."""
    setup = case_by_name(CASE).build_baseline()
    session = AdvisingSession(sample_period=8)
    profile = session.profile(request_for_case(CASE)).profile

    def fresh_request() -> AdvisingRequest:
        cubin = dataclasses.replace(setup.cubin)
        if source == "profile":
            return AdvisingRequest(source="profile", profile=profile, cubin=cubin)
        return AdvisingRequest(
            source="binary", cubin=cubin, kernel=setup.kernel,
            config=setup.config, workload=setup.workload,
        )

    serial = session.advise(fresh_request())
    assert serial.ok, serial.error
    request = fresh_request()
    workers = 8
    start = threading.Barrier(workers)
    results = []

    def advise():
        start.wait(timeout=10)
        results.append(session.advise(request))

    threads = [threading.Thread(target=advise) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == workers
    assert all(wire_form(result) == wire_form(serial) for result in results)
    if source == "profile":
        return

    structure = build_program_structure(request.cubin)
    sites, site_of = _site_table(structure)
    every_instruction = [
        (name, instruction.offset)
        for name, function in structure.functions.items()
        for instruction in function.cfg.instructions()
    ]
    assert sorted(sites) == sorted(every_instruction)
    assert len(set(sites)) == len(sites)
    assert all(sites[site] == key for key, site in site_of.items())
    plans = [
        block._trace_plan
        for function in structure.functions.values()
        for block in function.cfg.blocks
        if "_trace_plan" in block.__dict__
    ]
    assert plans and all(plan[1] is sites for plan in plans)
