"""Tests for program-structure recovery."""

import ast
import dataclasses
import json
import sys
import threading
from pathlib import Path
from types import MappingProxyType

import pytest

from repro.api.request import AdvisingRequest, request_for_case
from repro.api.session import AdvisingSession
from repro.pipeline.stages import retarget
from repro.sampling.trace import _site_table
from repro.staticcheck import dataflow as dataflow_module
from repro.staticcheck.engine import StaticChecker
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


def count_calls(monkeypatch, function) -> list:
    """Count calls of ``function``, one entry of its first argument per
    call, through every loaded ``repro`` module that imported it."""
    calls = []

    def counted(first, *args, **kwargs):
        calls.append(first)
        return function(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


def count_cfg_builds(monkeypatch) -> list:
    """Count ``build_cfg`` calls, one entry per function analyzed."""
    return count_calls(monkeypatch, program_module.build_cfg)


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
        assert function.liveness is function.liveness
        assert function.reachable is function.reachable
        assert isinstance(function.divergent_branches, tuple)
        assert function.divergent_branches is function.divergent_branches
        assert isinstance(function.post_dominators, MappingProxyType)
        assert function.post_dominators is function.post_dominators

    def test_a_second_advise_builds_no_cfg(self, monkeypatch):
        session = AdvisingSession(sample_period=8)
        first = session.advise(request_for_case(CASE))
        assert first.ok, first.error
        calls = count_cfg_builds(monkeypatch)
        second = session.advise(request_for_case(CASE))
        assert second.ok, second.error
        assert calls == []
        assert wire_form(second) == wire_form(first)

    def test_a_second_lint_builds_no_cfg(self, monkeypatch):
        case = dataclasses.replace(case_by_name(CASE))
        session = AdvisingSession()
        first = session.lint(request_for_case(case))
        calls = count_cfg_builds(monkeypatch)
        second = session.lint(request_for_case(case))
        assert calls == []
        assert second.to_json() == first.to_json()

    def test_a_second_lint_solves_no_dataflow(self, monkeypatch):
        """Liveness and the divergence taint are each solved once per
        function, by the first lint of the binary."""
        case = dataclasses.replace(case_by_name(CASE))
        functions = len(case.build_baseline().cubin.functions)
        session = AdvisingSession()
        calls = count_calls(monkeypatch, dataflow_module.solve_dataflow)
        first = session.lint(request_for_case(case))
        assert len(calls) == 2 * functions
        calls.clear()
        second = session.lint(request_for_case(case))
        assert calls == []
        assert second.to_json() == first.to_json()

    def test_a_lint_after_an_advise_builds_no_cfg(self, monkeypatch):
        case = dataclasses.replace(case_by_name(CASE))
        session = AdvisingSession(sample_period=8)
        advised = session.advise(request_for_case(case))
        assert advised.ok, advised.error
        calls = count_cfg_builds(monkeypatch)
        report = session.lint(request_for_case(case))
        assert calls == []
        fresh = dataclasses.replace(case_by_name(CASE))
        assert report.to_json() == session.lint(request_for_case(fresh)).to_json()

    def test_a_check_reads_the_binarys_structure(self, toy_cubin, monkeypatch):
        cubin = dataclasses.replace(toy_cubin)
        calls = count_cfg_builds(monkeypatch)
        first = StaticChecker().check(cubin)
        assert len(calls) == len(cubin.functions)
        structure = build_program_structure(cubin)
        second = StaticChecker().check(cubin)
        assert len(calls) == len(cubin.functions)
        assert second.to_json() == first.to_json()
        assert [entry.blocks for entry in first.functions] == [
            len(structure.function(name).cfg.blocks) for name in sorted(cubin.functions)
        ]


class _Callers(ast.NodeVisitor):
    """Names the class and function around every call of ``callees`` in a
    module, e.g. ``FunctionStructure.slicer``."""

    def __init__(self, callees):
        self.callees = callees
        self.scopes = []
        self.callers = []

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        callee = node.func
        name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
        if name in self.callees:
            self.callers.append(".".join(self.scopes) or "<module>")
        self.generic_visit(node)


def callers_in_package(*callees) -> set:
    """``module:scope`` of every call of ``callees`` in the package."""
    package = Path(program_module.__file__).resolve().parents[1]
    callers = set()
    for path in sorted(package.rglob("*.py")):
        visitor = _Callers(callees)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        callers.update(f"{path.relative_to(package).as_posix()}:{name}" for name in visitor.callers)
    return callers


def test_only_the_structure_builder_builds_cfgs():
    """Every CFG in the package comes from ``build_function_structure``, so
    a binary's one structure is the only place its CFGs are built."""
    assert callers_in_package("build_cfg") == {"structure/program.py:build_function_structure"}


def test_only_the_function_structure_computes_lint_facts():
    """Each per-function fact the lint reads is computed by the memoized
    property of ``FunctionStructure`` that owns it, and nowhere else."""
    assert callers_in_package(
        "analyze_liveness", "find_divergent_branches", "compute_post_dominators",
        "reachable_blocks",
    ) == {
        f"structure/program.py:FunctionStructure.{fact}"
        for fact in ("liveness", "divergent_branches", "post_dominators", "reachable")
    }


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


def race(workers, call) -> list:
    """Run ``call`` on ``workers`` threads released together, switching
    threads as often as the interpreter allows; return the results."""
    start = threading.Barrier(workers)
    results = []

    def run():
        start.wait(timeout=10)
        results.append(call())

    threads = [threading.Thread(target=run) for _ in range(workers)]
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
    return results


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
    results = race(8, lambda: session.advise(request))
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


def test_racing_first_lints_give_the_serial_report():
    """Eight threads make the first lints of one fresh binary, so they race
    on the facts memoized on its function structures, and every report
    matches a serial lint of another copy."""
    setup = case_by_name(CASE).build_baseline()
    session = AdvisingSession()

    def fresh_request() -> AdvisingRequest:
        return AdvisingRequest(
            source="binary", cubin=dataclasses.replace(setup.cubin), kernel=setup.kernel,
            config=setup.config, workload=setup.workload,
        )

    serial = session.lint(fresh_request()).to_json()
    request = fresh_request()
    reports = race(8, lambda: session.lint(request))
    assert all(report.to_json() == serial for report in reports)
