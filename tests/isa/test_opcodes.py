"""Tests for the opcode catalog."""

import pytest

from repro.isa.opcodes import (
    GLOBAL_MEMORY_UPPER_BOUND,
    LatencyClass,
    OPCODES,
    is_long_latency_arithmetic,
    lookup_opcode,
)
from repro.isa.registers import MemorySpace


def test_lookup_strips_modifiers():
    assert lookup_opcode("LDG.E.32").name == "LDG"
    assert lookup_opcode("ISETP.GE.AND").name == "ISETP"


def test_lookup_prefers_exact_multi_part_opcodes():
    assert lookup_opcode("IMAD.WIDE").name == "IMAD.WIDE"
    assert lookup_opcode("IMAD").name == "IMAD"


def test_unknown_opcode_raises():
    with pytest.raises(KeyError):
        lookup_opcode("FROBNICATE")


def test_memory_opcodes_have_spaces():
    assert lookup_opcode("LDG").memory_space is MemorySpace.GLOBAL
    assert lookup_opcode("LDL").memory_space is MemorySpace.LOCAL
    assert lookup_opcode("LDS").memory_space is MemorySpace.SHARED
    assert lookup_opcode("LDC").memory_space is MemorySpace.CONSTANT


def test_loads_and_stores_classified():
    assert lookup_opcode("LDG").is_load and not lookup_opcode("LDG").is_store
    assert lookup_opcode("STG").is_store and not lookup_opcode("STG").is_load


def test_variable_latency_loads_have_pessimistic_upper_bounds():
    info = lookup_opcode("LDG")
    assert info.latency_class is LatencyClass.VARIABLE
    assert info.latency_upper_bound == GLOBAL_MEMORY_UPPER_BOUND
    assert info.latency_upper_bound > info.latency


def test_fixed_latency_upper_bound_equals_latency():
    info = lookup_opcode("IADD")
    assert info.latency_class is LatencyClass.FIXED
    assert info.latency_upper_bound == info.latency


def test_synchronization_class():
    assert lookup_opcode("BAR").is_synchronization
    assert not lookup_opcode("LDG").is_synchronization


@pytest.mark.parametrize("name", ["IDIV", "DMUL", "F2F", "IMAD.WIDE", "IMUL"])
def test_long_latency_arithmetic_members(name):
    assert is_long_latency_arithmetic(lookup_opcode(name))


@pytest.mark.parametrize("name", ["IADD", "FADD", "FFMA", "MOV", "LDG", "BAR"])
def test_short_or_non_arithmetic_not_long_latency(name):
    assert not is_long_latency_arithmetic(lookup_opcode(name))


def test_catalog_consistency():
    for name, info in OPCODES.items():
        assert info.name == name
        assert info.latency >= 1
        assert info.latency_upper_bound >= info.latency
        if info.klass.is_memory:
            assert info.memory_space is not None


def test_core_alu_latency_is_four_cycles():
    # The Volta microbenchmark result the simulator and pruning rules rely on.
    for name in ("IADD", "FADD", "FMUL", "FFMA", "MOV"):
        assert lookup_opcode(name).latency == 4
