"""The committed real-SASS corpus: lintable registry of disassembly listings.

Unlike the synthetic benchmark registry (:mod:`repro.workloads.registry`),
corpus cases have no :class:`SetupBuilder` — they *are* the binary, as a
committed listing under ``tests/sass/corpus/``.  They therefore live in this
dedicated manifest rather than the simulation registry: ``gpa-advise lint
--sass-corpus`` sweeps them, the golden reports under ``tests/sass/golden/``
pin their byte-exact lint output, and ``tools/check_sass_corpus.py`` keeps
listing / golden / manifest in sync.

Each case names the launched kernel, a launch configuration (for the
occupancy block) and optionally a :class:`~repro.sampling.workload.WorkloadSpec`
whose per-access strides are keyed by *listing line numbers* — the frontend
stamps every instruction's ``line`` with its 1-based line in the listing, so
memory-behaviour rules (uncoalesced strides, bank conflicts) apply to real
SASS exactly as they do to generated kernels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec
from repro.sass.lint import lint_file
from repro.staticcheck.report import StaticReport


@dataclass(frozen=True)
class SassCorpusCase:
    """One committed listing plus the context needed to lint it."""

    case_id: str
    filename: str
    kernel: str
    arch_flag: str
    description: str
    launch: LaunchConfig
    #: Access-behaviour spec; stride keys are 1-based listing line numbers.
    workload: Optional[WorkloadSpec] = None

    @property
    def golden_name(self) -> str:
        """Stem of the golden report file (``<case>__<arch>.json``)."""
        return self.case_id.replace("sass/", "").replace(":", "__")


def _case(
    name: str,
    filename: str,
    kernel: str,
    arch_flag: str,
    description: str,
    launch: LaunchConfig,
    workload: Optional[WorkloadSpec] = None,
) -> SassCorpusCase:
    return SassCorpusCase(
        case_id=f"sass/{name}:{arch_flag}",
        filename=filename,
        kernel=kernel,
        arch_flag=arch_flag,
        description=description,
        launch=launch,
        workload=workload,
    )


SASS_CORPUS: Tuple[SassCorpusCase, ...] = (
    _case(
        "reduce_sum", "reduce_sum_sm70.sass", "_Z10reduce_sumPKfPfi", "sm_70",
        "Shared-memory tree reduction (cuobjdump dialect, predicated exit).",
        LaunchConfig(grid_blocks=1024, threads_per_block=256, shared_memory_bytes=1024),
    ),
    _case(
        "matmul_tiled", "matmul_tiled_sm70.sass", "_Z12matmul_tiledPKfS0_Pfii", "sm_70",
        "16x16 tiled matmul (nvdisasm dialect, nested loops); the unpadded "
        "A-tile column read conflicts on shared-memory banks.",
        LaunchConfig(grid_blocks=256, threads_per_block=256, shared_memory_bytes=2048),
        WorkloadSpec(name="matmul_tiled", access_strides={39: 64}),
    ),
    _case(
        "stencil5", "stencil5_sm75.sass", "_Z8stencil5PKfPfi", "sm_75",
        "1D 5-point stencil (nvdisasm dialect, uniform-register addressing, "
        "predicated boundary exit).",
        LaunchConfig(grid_blocks=4096, threads_per_block=256),
    ),
    _case(
        "scan_block", "scan_block_sm70.sass", "_Z10scan_blockPKfPfi", "sm_70",
        "Hillis-Steele inclusive scan in shared memory (cuobjdump dialect, "
        "predicated load in the doubling loop).",
        LaunchConfig(grid_blocks=512, threads_per_block=256, shared_memory_bytes=1024),
    ),
    _case(
        "histogram256", "histogram256_sm75.sass", "_Z12histogram256PKhPjii", "sm_75",
        "256-bin histogram (cuobjdump dialect, grid-stride loop, shared "
        "atomics and a global reduction).",
        LaunchConfig(grid_blocks=160, threads_per_block=256, shared_memory_bytes=1024),
    ),
    _case(
        "transpose32", "transpose32_sm80.sass", "_Z11transpose32PKfPfii", "sm_80",
        "32x32 tiled transpose with padded shared memory (nvdisasm dialect, "
        "LDGSTS async copies).",
        LaunchConfig(grid_blocks=1024, threads_per_block=256, shared_memory_bytes=4224),
    ),
    _case(
        "saxpy", "saxpy_sm70.sass", "_Z5saxpyifPKfPf", "sm_70",
        "Grid-stride SAXPY (cuobjdump dialect, fully coalesced).",
        LaunchConfig(grid_blocks=1024, threads_per_block=256),
    ),
    _case(
        "dotprod_unknown", "dotprod_unknown_sm80.sass", "_Z7dotprodPKfS0_Pfi", "sm_80",
        "Dot product with shared + warp-shuffle reduction (nvdisasm "
        "dialect); carries QSPC/CCTL opcodes absent from the catalog to pin "
        "unknown-op degradation.",
        LaunchConfig(grid_blocks=160, threads_per_block=256, shared_memory_bytes=1024),
    ),
    _case(
        "axpby_bare", "axpby_bare_sm70.sass", "kernel", "sm_70",
        "Bare-dialect AXPBY with AoS-strided accesses (uncoalesced) and a "
        "predicated branch as the final instruction.",
        LaunchConfig(grid_blocks=2048, threads_per_block=128),
        WorkloadSpec(name="axpby_bare", access_strides={12: 128, 13: 128, 16: 128}),
    ),
    _case(
        "vecnorm", "vecnorm_sm80.sass", "_Z7vecnormPKdPdi", "sm_80",
        "fp64 vector norm step (cuobjdump dialect); DMUL/DADD read and "
        "write register pairs.",
        LaunchConfig(grid_blocks=512, threads_per_block=256),
    ),
)

_BY_ID: Dict[str, SassCorpusCase] = {case.case_id: case for case in SASS_CORPUS}


def default_corpus_dir() -> str:
    """``tests/sass/corpus`` resolved relative to the repository layout."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "sass", "corpus")


def corpus_case_ids() -> Tuple[str, ...]:
    return tuple(case.case_id for case in SASS_CORPUS)


def resolve_corpus_case(case_or_id) -> SassCorpusCase:
    """Accept a :class:`SassCorpusCase` or its id (``sass/<name>:<arch>``)."""
    if isinstance(case_or_id, SassCorpusCase):
        return case_or_id
    try:
        return _BY_ID[case_or_id]
    except KeyError:
        raise KeyError(
            f"unknown SASS corpus case {case_or_id!r}; "
            f"available: {sorted(_BY_ID)}"
        ) from None


def corpus_listing_path(case_or_id, directory: Optional[str] = None) -> str:
    case = resolve_corpus_case(case_or_id)
    return os.path.join(directory or default_corpus_dir(), case.filename)


def lint_corpus_case(
    case_or_id, directory: Optional[str] = None, **checker_kwargs
) -> StaticReport:
    """Ingest and lint one corpus case; the report carries its case id."""
    case = resolve_corpus_case(case_or_id)
    return lint_file(
        corpus_listing_path(case, directory),
        default_arch=case.arch_flag,
        kernel=case.kernel,
        config=case.launch,
        workload=case.workload,
        case_id=case.case_id,
        **checker_kwargs,
    )
