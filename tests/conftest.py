"""Shared fixtures: a small kernel, its profile and its analysis results."""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # `xdist_group` pins a module's tests to one pytest-xdist worker under
    # `--dist loadgroup` (CI's parallel matrix), so modules with expensive
    # shared simulation fixtures are not re-simulated on every worker.
    # Registering it here keeps serial runs (no xdist installed) warning-free.
    config.addinivalue_line(
        "markers",
        "xdist_group(name): run all tests of this group on one xdist worker",
    )
from repro.api.session import AdvisingSession
from repro.arch.machine import VoltaV100
from repro.blame.attribution import InstructionBlamer
from repro.cubin.builder import CubinBuilder, imm, p
from repro.sampling.profiler import Profiler
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec


def build_toy_cubin() -> CubinBuilder:
    """A small kernel with a global-load loop, a barrier and a store.

    Lines: 10 prologue, 12 loop header, 13 load, 14 use, 15 counter,
    16 barrier, 17 epilogue.
    """
    builder = CubinBuilder(module_name="toy_module")
    k = builder.kernel("toy_kernel", source_file="toy.cu")
    k.at_line(10)
    k.s2r(0, "SR_TID.X")
    k.mov_imm(2, 0x100)
    k.mov_imm(3, 0)
    k.iadd(2, 2, 0)
    k.mov_imm(8, 0)
    k.mov_imm(9, 1 << 16)
    k.at_line(12)
    k.isetp(0, 8, 9, "LT")
    with k.loop("main", predicate=p(0)):
        k.at_line(12)
        k.iadd(8, 8, imm(1))
        k.at_line(13)
        k.ldg(4, 2)
        k.at_line(14)
        k.ffma(5, 4, 4, 5)
        k.ffma(20, 20, 20, 20)
        k.at_line(16)
        k.bar_sync()
        k.at_line(12)
        k.isetp(0, 8, 9, "LT")
    k.at_line(17)
    k.stg(2, 5)
    k.exit()
    builder.add_function(k.build())
    return builder


def build_toy_workload() -> WorkloadSpec:
    """The toy kernel's loop (line 12) runs 12 times in every warp."""
    return WorkloadSpec(name="toy", loop_trip_counts={12: 12})


@pytest.fixture(scope="session")
def toy_cubin():
    return build_toy_cubin().build()


@pytest.fixture(scope="session")
def toy_workload():
    return build_toy_workload()


@pytest.fixture(scope="session")
def toy_config():
    return LaunchConfig(grid_blocks=320, threads_per_block=128)


@pytest.fixture(scope="session")
def toy_profiled(toy_cubin, toy_config, toy_workload):
    profiler = Profiler(VoltaV100, sample_period=4)
    return profiler.profile(toy_cubin, "toy_kernel", toy_config, toy_workload)


@pytest.fixture(scope="session")
def toy_blame(toy_profiled):
    return InstructionBlamer(VoltaV100).blame(toy_profiled.profile, toy_profiled.structure)


@pytest.fixture(scope="session")
def toy_report(toy_profiled):
    return AdvisingSession(sample_period=4).advise_profiled(toy_profiled)


@pytest.fixture(scope="session")
def session():
    """An inline session at the harnesses' default sample period."""
    return AdvisingSession(sample_period=8)
