"""The static checker: runs every analysis and rule over one binary.

:class:`StaticChecker` is the lint counterpart of the advising pipeline —
it consumes the same inputs a profiling run would (a CUBIN, optionally a
launch config and a workload access spec) but never simulates anything.
It reads the binary's one
:func:`~repro.structure.program.build_program_structure` (the CFGs and loop
nests profiling and blame share, with each function's liveness, divergence
taint, post-dominators and reachable blocks memoized on it), estimates the
per-architecture depth/ILP, and runs the rule set of
:mod:`repro.staticcheck.rules`.  The result is a deterministic
:class:`~repro.staticcheck.report.StaticReport`.

The occupancy block of the launched kernel is computed with the *same*
:class:`~repro.arch.occupancy.OccupancyCalculator` call the profiler makes
(`registers_per_thread` from the CUBIN, shared memory as the max of the
launch's dynamic and the kernel's static allocation), so static and dynamic
occupancy figures agree by construction; next to it the report carries the
what-if occupancy at the statically-estimated live-range pressure.
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.arch.machine import ArchitectureError, GpuArchitecture, VoltaV100, get_architecture
from repro.arch.occupancy import OccupancyCalculator, OccupancyResult
from repro.cubin.binary import Cubin
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec
from repro.staticcheck.depth import DepthAnalysis, estimate_depths
from repro.staticcheck.report import FunctionLint, StaticReport
from repro.staticcheck.rules import DEFAULT_RULES, LintContext
from repro.structure.program import build_program_structure


def _occupancy_dict(result: OccupancyResult) -> dict:
    return {
        "blocks_per_sm": result.blocks_per_sm,
        "warps_per_sm": result.warps_per_sm,
        "warps_per_scheduler": result.warps_per_scheduler,
        "occupancy": result.occupancy,
        "limiter": result.limiter,
        "waves": result.waves,
        "blocks_per_sm_limit": result.blocks_per_sm_limit,
    }


def _depth_dicts(depths: DepthAnalysis) -> tuple:
    block_depths = [
        {
            "block": entry.block_index,
            "instructions": entry.instructions,
            "total_latency": entry.total_latency,
            "critical_path": entry.critical_path,
            "ilp": entry.ilp,
        }
        for entry in depths.blocks
    ]
    loop_depths = [
        {
            "loop": entry.loop_index,
            "header_offset": entry.header_offset,
            "header_line": entry.header_line,
            "blocks": entry.blocks,
            "instructions": entry.instructions,
            "total_latency": entry.total_latency,
            "critical_path": entry.critical_path,
            "ilp": entry.ilp,
        }
        for entry in depths.loops
    ]
    summary = {
        "total_latency": depths.total_latency,
        "critical_path": depths.critical_path,
        "ilp": depths.ilp,
    }
    return summary, block_depths, loop_depths


class StaticChecker:
    """Runs the full static lint over CUBINs.

    A binary whose architecture flag is unknown is linted against
    ``architecture`` (default :data:`~repro.arch.machine.VoltaV100`); the
    report records the substituted flag as ``architecture_fallback`` and a
    ``UserWarning`` says so, because latency figures from the wrong machine
    model are quietly misleading.  ``strict_architecture=True`` raises the
    :class:`~repro.arch.machine.ArchitectureError` instead.
    """

    def __init__(
        self,
        architecture: Optional[GpuArchitecture] = None,
        strict_architecture: bool = False,
    ):
        self.architecture = architecture or VoltaV100
        self.strict_architecture = strict_architecture

    def check(
        self,
        cubin: Cubin,
        kernel: Optional[str] = None,
        config: Optional[LaunchConfig] = None,
        workload: Optional[WorkloadSpec] = None,
        case_id: Optional[str] = None,
        ingest: Optional[dict] = None,
    ) -> StaticReport:
        """Lint every function of ``cubin``; ``kernel`` names the launched one.

        ``ingest`` is the wire form of a :class:`repro.sass.IngestReport`
        when the binary was lowered from a real disassembly listing; it is
        carried on the report verbatim.
        """
        architecture_fallback: Optional[str] = None
        try:
            architecture = get_architecture(cubin.arch_flag)
        except ArchitectureError:
            if self.strict_architecture:
                raise
            architecture = self.architecture
            architecture_fallback = cubin.arch_flag
            warnings.warn(
                f"unknown architecture flag {cubin.arch_flag!r}; analyzing "
                f"against {architecture.name} — latency and occupancy figures "
                "may not match the real target",
                stacklevel=2,
            )
        program = build_program_structure(cubin)
        kernel_name = kernel or next(iter(cubin.functions))

        report = StaticReport(
            kernel=kernel_name,
            arch_flag=cubin.arch_flag,
            case_id=case_id,
            architecture_fallback=architecture_fallback,
            ingest=ingest,
        )

        for name in sorted(program.functions):
            structure = program.functions[name]
            function = structure.function
            cfg = structure.cfg

            liveness = structure.liveness
            depths = estimate_depths(cfg, structure.loop_nest, architecture)
            context = LintContext(
                structure=structure,
                architecture=architecture,
                workload=workload if name == kernel_name else None,
            )
            for rule in DEFAULT_RULES:
                report.diagnostics.extend(rule.run(context))

            occupancy = None
            if name == kernel_name and config is not None:
                calculator = OccupancyCalculator(architecture)
                shared_memory = max(config.shared_memory_bytes, function.shared_memory_bytes)
                declared = calculator.calculate(
                    grid_blocks=config.grid_blocks,
                    threads_per_block=config.threads_per_block,
                    registers_per_thread=function.registers_per_thread,
                    shared_memory_per_block=shared_memory,
                )
                static_pressure = calculator.calculate(
                    grid_blocks=config.grid_blocks,
                    threads_per_block=config.threads_per_block,
                    registers_per_thread=max(1, liveness.max_pressure),
                    shared_memory_per_block=shared_memory,
                )
                occupancy = {
                    "declared": _occupancy_dict(declared),
                    "static_pressure": _occupancy_dict(static_pressure),
                }

            depth_summary, block_depths, loop_depths = _depth_dicts(depths)
            report.functions.append(
                FunctionLint(
                    name=name,
                    is_kernel=function.is_kernel,
                    blocks=len(cfg.blocks),
                    instructions=len(function.instructions),
                    loops=len(structure.loop_nest.loops),
                    unreachable_blocks=sorted(
                        block.index
                        for block in cfg.blocks
                        if block.index not in structure.reachable
                    ),
                    registers={
                        "declared": function.registers_per_thread,
                        "static_max_live": liveness.max_pressure,
                        "max_live_offset": liveness.max_pressure_offset,
                    },
                    depth=depth_summary,
                    block_depths=block_depths,
                    loop_depths=loop_depths,
                    occupancy=occupancy,
                )
            )

        report.diagnostics.sort(key=lambda diagnostic: diagnostic.sort_key)
        return report
