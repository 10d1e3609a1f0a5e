"""Tests for the CUBIN container and its serialization."""

import pytest

from repro.cubin.binary import Cubin, FunctionVisibility
from repro.cubin.builder import CubinBuilder


class TestCubin:
    def test_kernels_and_device_functions(self, toy_cubin):
        assert [f.name for f in toy_cubin.kernels()] == ["toy_kernel"]
        assert toy_cubin.device_functions() == []

    def test_function_lookup_error(self, toy_cubin):
        with pytest.raises(KeyError):
            toy_cubin.function("missing")

    def test_duplicate_function_rejected(self, toy_cubin):
        function = toy_cubin.function("toy_kernel")
        builder = CubinBuilder().add_function(function).add_function(function)
        with pytest.raises(ValueError, match="duplicate function 'toy_kernel'"):
            builder.build()

    def test_code_size(self, toy_cubin):
        function = toy_cubin.function("toy_kernel")
        assert function.code_size == 16 * len(function.instructions)

    def test_line_table_covers_annotated_instructions(self, toy_cubin):
        function = toy_cubin.function("toy_kernel")
        lines = {entry.line for entry in function.line_table()}
        assert {10, 12, 13, 14, 16, 17} <= lines

    def test_json_roundtrip_preserves_structure(self, toy_cubin):
        restored = Cubin.from_json(toy_cubin.to_json())
        assert set(restored.functions) == set(toy_cubin.functions)
        original = toy_cubin.function("toy_kernel")
        copy = restored.function("toy_kernel")
        assert copy.visibility is FunctionVisibility.GLOBAL
        assert copy.registers_per_thread == original.registers_per_thread
        assert [i.opcode for i in copy.instructions] == [i.opcode for i in original.instructions]
        assert [i.line for i in copy.instructions] == [i.line for i in original.instructions]
        branch_targets = [i.target for i in copy.instructions if i.opcode == "BRA"]
        assert branch_targets == [i.target for i in original.instructions if i.opcode == "BRA"]
