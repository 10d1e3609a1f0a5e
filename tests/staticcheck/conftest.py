"""Shared fixtures for the static-lint tests.

Most tests here build tiny synthetic kernels straight from assembly
listings (``parse_program``) — the registry cases are all well-formed, so
the interesting rule triggers (divergent barriers, unreachable blocks,
pathological strides) only exist in hand-written programs.
"""

import pytest

from repro.cfg.graph import build_cfg
from repro.cubin.binary import Cubin, Function, FunctionVisibility
from repro.sass import parse_program


@pytest.fixture
def make_cfg():
    """Factory: assembly text -> ControlFlowGraph."""

    def _make(text):
        return build_cfg(parse_program(text))

    return _make


@pytest.fixture
def make_cubin():
    """Factory: assembly text -> single-kernel Cubin."""

    def _make(text, name="kern", arch_flag="sm_70", registers=32, shared=0):
        function = Function(
            name=name,
            visibility=FunctionVisibility.GLOBAL,
            instructions=parse_program(text),
            registers_per_thread=registers,
            shared_memory_bytes=shared,
        )
        return Cubin(arch_flag=arch_flag, functions={name: function})

    return _make
