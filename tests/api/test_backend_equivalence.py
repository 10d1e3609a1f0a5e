"""Reference vs. production core: byte-identical wire-form results, every case.

Production always simulates on the packed-array
:class:`~repro.sampling.vector.VectorSMSimulator`; the object-model
:class:`~repro.sampling.simulator.SMSimulator` is kept as the readable
reference.  Their contract is *bit identity*: for every registry benchmark,
under every simulation scope and memory model, the serialized
:class:`~repro.api.result.AdvisingResult` must be byte-for-byte identical
whichever core ran (only the wall-clock ``duration`` field, which no
simulation output feeds, is zeroed before comparison).  The reference run
swaps ``SMSimulator`` in for ``VectorSMSimulator`` where the profiler and
the whole-GPU engine look the class up, so production code carries no seam
for it.

Every single-wave combination runs on all 26 registry cases.  The whole-GPU
scope simulates every SM of every dispatch wave, so its full sweep takes
minutes: a representative subset runs by default and the complete matrix is
enabled with ``REPRO_FULL_EQUIVALENCE=1`` (CI's nightly sweep sets it).
"""

import json
import os
from contextlib import contextmanager

import pytest

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.sampling import gpu, profiler
from repro.sampling.simulator import SMSimulator
from repro.workloads.registry import case_names

pytestmark = pytest.mark.xdist_group("backend_equivalence")

ALL_CASES = case_names()
#: Always-on whole-GPU subset: the three smallest grids (16/40/50 blocks)
#: — grid-limited launches that still exercise the tail-wave and cross-SM
#: paths, from distinct suites, without the minutes-long full-grid walks
#: the nightly sweep covers.
WHOLE_GPU_CASES = [
    "PeleC:block_increase",
    "rodinia/particlefilter:block_increase",
    "rodinia/streamcluster:block_increase",
]
FULL_MATRIX = bool(os.environ.get("REPRO_FULL_EQUIVALENCE"))

_SESSIONS = {}


def session_for(scope, memory_model):
    # Cache-less, so every advise call simulates on whichever core is bound.
    key = (scope, memory_model)
    session = _SESSIONS.get(key)
    if session is None:
        session = AdvisingSession(
            sample_period=8, simulation_scope=scope, memory_model=memory_model,
        )
        _SESSIONS[key] = session
    return session


@contextmanager
def reference_core(monkeypatch, core=SMSimulator):
    """Run the block with ``core`` bound where production builds its SMs."""
    with monkeypatch.context() as patch:
        for module in (profiler, gpu):
            patch.setattr(module, "VectorSMSimulator", core)
        yield


def wire_form(scope, memory_model, case_id):
    result = session_for(scope, memory_model).advise(request_for_case(case_id))
    payload = result.to_dict()
    assert not payload.get("error"), payload.get("error")
    payload["duration"] = 0.0
    # Unsorted: every serialized output keeps the result's dict order, so
    # first-sample order is part of the bytes the cores must agree on.
    return json.dumps(payload)


def assert_cores_agree(monkeypatch, scope, memory_model, case_id):
    production = wire_form(scope, memory_model, case_id)
    with reference_core(monkeypatch):
        reference = wire_form(scope, memory_model, case_id)
    assert production == reference


@pytest.mark.parametrize("case_id", ALL_CASES)
@pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
class TestSingleWaveEquivalence:
    def test_wire_identical(self, monkeypatch, memory_model, case_id):
        assert_cores_agree(monkeypatch, "single_wave", memory_model, case_id)


@pytest.mark.parametrize(
    "case_id", ALL_CASES if FULL_MATRIX else WHOLE_GPU_CASES
)
@pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
class TestWholeGpuEquivalence:
    def test_wire_identical(self, monkeypatch, memory_model, case_id):
        assert_cores_agree(monkeypatch, "whole_gpu", memory_model, case_id)


class TestReferenceSwap:
    """The swap must reach both engines, or the comparisons above are vacuous."""

    @pytest.mark.parametrize("scope", ["single_wave", "whole_gpu"])
    def test_reference_core_runs(self, monkeypatch, scope):
        built = []

        class Spy(SMSimulator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        with reference_core(monkeypatch, Spy):
            wire_form(scope, "flat", WHOLE_GPU_CASES[0])
        assert len(built) == 1
        wire_form(scope, "flat", WHOLE_GPU_CASES[0])
        assert len(built) == 1  # unswapped, production builds its own core


class TestObservationNeutrality:
    """Sampling must observe, never perturb — on the production core too."""

    @pytest.mark.parametrize("memory_model", ["flat", "hierarchy"])
    def test_kernel_cycles_invariant_across_periods(self, memory_model):
        case_id = ALL_CASES[0]
        facts = []
        for period in (8, 32, 128):
            session = AdvisingSession(
                sample_period=period, memory_model=memory_model,
            )
            profiled = session.profile(request_for_case(case_id))
            statistics = profiled.profile.statistics
            memory = (
                statistics.memory.to_dict() if statistics.memory is not None else None
            )
            facts.append(
                (statistics.kernel_cycles, statistics.wave_cycles, memory)
            )
        assert facts[0] == facts[1] == facts[2]
