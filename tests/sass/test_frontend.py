"""Listing ingestion end to end (``repro.sass.frontend``)."""

import pytest

from repro.cubin.binary import Cubin
from repro.sass.frontend import detect_dialect, ingest_listing

CUOBJDUMP = """\
\tcode for sm_70
\t\tFunction : my_kernel
\t.headerflags\t@"EF_CUDA_SM70 EF_CUDA_PTX_SM(EF_CUDA_SM70)"
        /*0000*/                   MOV R1, c[0x0][0x28] ;      /* 0x00000a00ff017624 */
                                                               /* 0x000fd000078e00ff */
        /*0010*/                   S2R R0, SR_TID.X ;
        /*0020*/                   ISETP.GE.AND P0, PT, R0, c[0x0][0x160], PT ;
        /*0030*/              @P0  EXIT ;
        /*0040*/                   IMAD.WIDE R2, R0, 0x4, c[0x0][0x168] ;
        /*0050*/                   LDG.E.SYS R4, [R2.64] ;
        /*0060*/                   FADD R4, R4, 1 ;
        /*0070*/                   STG.E.SYS [R2.64], R4 ;
        /*0080*/                   EXIT ;
"""

NVDISASM = """\
\t.headerflags\t@"EF_CUDA_TEXMODE_UNIFIED EF_CUDA_64BIT_ADDRESS EF_CUDA_SM75"
\t.section\t.text.loop_kernel,"ax",@progbits
\t.sectioninfo\t@"SHI_REGISTERS=12"
loop_kernel:
        /*0000*/                   MOV R1, c[0x0][0x28] ;
        /*0010*/                   MOV R0, RZ ;
.L_x_0:
        /*0020*/                   ISETP.GE.AND P0, PT, R0, 0x10, PT ;
        /*0030*/              @P0  BRA `(.L_x_1) ;
        /*0040*/                   IADD3 R0, R0, 0x1, RZ ;
        /*0050*/                   BRA `(.L_x_0) ;
.L_x_1:
        /*0060*/                   EXIT ;
"""

BARE = """\
# two-instruction bare listing
MOV R0, RZ
EXIT
"""


class TestDialectDetection:
    def test_cuobjdump(self):
        assert detect_dialect(CUOBJDUMP) == "cuobjdump"

    def test_nvdisasm(self):
        assert detect_dialect(NVDISASM) == "nvdisasm"

    def test_bare(self):
        assert detect_dialect(BARE) == "bare"


class TestCuobjdumpIngest:
    def test_function_and_arch(self):
        cubin, report = ingest_listing(CUOBJDUMP, source_name="k.sass")
        assert cubin.arch_flag == "sm_70"
        assert set(cubin.functions) == {"my_kernel"}
        assert report.dialect == "cuobjdump"
        assert report.arch_flag == "sm_70"

    def test_full_coverage_and_counts(self):
        _cubin, report = ingest_listing(CUOBJDUMP)
        assert report.total == 9
        assert report.decoded == 9
        assert report.coverage == 1.0

    def test_offsets_come_from_comments(self):
        cubin, _report = ingest_listing(CUOBJDUMP)
        offsets = [i.offset for i in cubin.functions["my_kernel"].instructions]
        assert offsets == [0x0, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80]

    def test_listing_lines_are_stamped(self):
        cubin, _report = ingest_listing(CUOBJDUMP)
        instructions = cubin.functions["my_kernel"].instructions
        # The first instruction sits on line 4 of the listing text.
        assert instructions[0].line == 4
        # The encoding continuation line (line 5) is skipped, so the second
        # instruction is on line 6.
        assert instructions[1].line == 6

    def test_source_file_is_the_listing_name(self):
        cubin, _report = ingest_listing(CUOBJDUMP, source_name="k.sass")
        assert cubin.functions["my_kernel"].instructions[0].source_file == "k.sass"


class TestNvdisasmIngest:
    def test_section_name_and_registers(self):
        cubin, report = ingest_listing(NVDISASM)
        assert set(cubin.functions) == {"loop_kernel"}
        assert cubin.arch_flag == "sm_75"
        assert cubin.functions["loop_kernel"].registers_per_thread == 12
        assert report.dialect == "nvdisasm"

    def test_symbolic_targets_resolve_to_offsets(self):
        cubin, report = ingest_listing(NVDISASM)
        instructions = cubin.functions["loop_kernel"].instructions
        branches = [i for i in instructions if i.target is not None]
        assert [i.target for i in branches] == [0x60, 0x20]
        assert not report.warnings

    def test_unresolved_target_warns_but_does_not_crash(self):
        text = NVDISASM.replace("`(.L_x_1)", "`(.L_x_9)")
        cubin, report = ingest_listing(text)
        assert any(".L_x_9" in warning for warning in report.warnings)
        branch = cubin.functions["loop_kernel"].instructions[3]
        assert branch.target is None


class TestBareIngest:
    def test_implicit_function_with_sequential_offsets(self):
        cubin, report = ingest_listing(BARE)
        (name,) = cubin.functions
        instructions = cubin.functions[name].instructions
        assert [i.offset for i in instructions] == [0x0, 0x10]
        assert report.dialect == "bare"

    def test_default_arch_applies(self):
        cubin, _report = ingest_listing(BARE, default_arch="sm_80")
        assert cubin.arch_flag == "sm_80"


class TestDegradation:
    def test_unknown_opcode_reduces_coverage_not_ingest(self):
        text = CUOBJDUMP.replace(
            "FADD R4, R4, 1", "FANCYOP.X R4, R4, 1"
        )
        cubin, report = ingest_listing(text)
        assert report.total == 9
        assert report.decoded == 8
        assert report.coverage == pytest.approx(8 / 9, abs=1e-4)
        (ingest,) = report.functions
        assert "FANCYOP" in ingest.unknown_opcodes
        unknown = cubin.functions["my_kernel"].instructions[6]
        assert unknown.is_unknown_op

    def test_listing_without_instructions_raises(self):
        with pytest.raises(ValueError):
            ingest_listing("# nothing here\n")

    def test_ingest_report_dict_shape(self):
        _cubin, report = ingest_listing(CUOBJDUMP, source_name="k.sass")
        payload = report.to_dict()
        assert payload["source_name"] == "k.sass"
        assert payload["total"] == 9
        assert payload["coverage"] == 1.0
        assert payload["functions"][0]["name"] == "my_kernel"


#: ``cuobjdump -sass`` of a fat binary: the kernel again, compiled for sm_80.
FAT_BINARY = CUOBJDUMP + """\
\tcode for sm_80
\t\tFunction : my_kernel
\t.headerflags\t@"EF_CUDA_SM80 EF_CUDA_PTX_SM(EF_CUDA_SM80)"
        /*0000*/                   MOV R1, c[0x0][0x28] ;
        /*0010*/                   S2R R0, SR_TID.X ;
        /*0020*/                   EXIT ;
"""


class TestFatBinary:
    """A function repeated under several ``code for`` headers."""

    def test_the_first_definition_is_kept(self):
        cubin, report = ingest_listing(FAT_BINARY, source_name="fat.sass")
        single, _report = ingest_listing(CUOBJDUMP, source_name="fat.sass")
        assert cubin.arch_flag == report.arch_flag == "sm_70"
        assert list(cubin.functions) == ["my_kernel"]
        assert cubin.function("my_kernel") == single.function("my_kernel")

    def test_the_report_lists_only_the_kept_function(self):
        _cubin, report = ingest_listing(FAT_BINARY, source_name="fat.sass")
        assert [ingest.name for ingest in report.functions] == ["my_kernel"]
        assert report.total == 9

    def test_the_skipped_definition_and_arch_lines_warn(self):
        _cubin, report = ingest_listing(FAT_BINARY, source_name="fat.sass")
        assert any(
            "repeated definition of function 'my_kernel'" in warning
            for warning in report.warnings
        )
        assert [w for w in report.warnings if "ignored sm_80" in w] == [
            "fat.sass:14: ignored sm_80: the binary already holds sm_70 functions",
            "fat.sass:16: ignored sm_80: the binary already holds sm_70 functions",
        ]

    def test_a_repeated_arch_line_does_not_warn(self):
        text = CUOBJDUMP + CUOBJDUMP.replace("my_kernel", "other_kernel")
        cubin, report = ingest_listing(text)
        assert list(cubin.functions) == ["my_kernel", "other_kernel"]
        assert cubin.arch_flag == "sm_70"
        assert not report.warnings


class TestRoundTrip:
    def test_cubin_serializes_through_raw_listing(self):
        cubin, _report = ingest_listing(CUOBJDUMP, source_name="k.sass")
        payload = cubin.to_dict()
        restored = Cubin.from_dict(payload)
        original = cubin.functions["my_kernel"].instructions
        reloaded = restored.functions["my_kernel"].instructions
        assert len(reloaded) == len(original)
        assert [i.offset for i in reloaded] == [i.offset for i in original]
        assert [i.opcode for i in reloaded] == [i.opcode for i in original]
