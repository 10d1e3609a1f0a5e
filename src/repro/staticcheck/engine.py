"""The static checker: runs every analysis and rule over one binary.

:class:`StaticChecker` is the lint counterpart of the advising pipeline —
it consumes the same inputs a profiling run would (a CUBIN, optionally a
launch config and a workload access spec) but never simulates anything:
structure recovery via :class:`~repro.advisor.static_analyzer.StaticAnalyzer`,
then per function the dataflow analyses (liveness/pressure, divergence
taint, post-dominators), the depth/ILP estimates, and the rule set of
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

from typing import Optional

from repro.advisor.static_analyzer import StaticAnalyzer
from repro.arch.machine import GpuArchitecture
from repro.arch.occupancy import OccupancyCalculator, OccupancyResult
from repro.cubin.binary import Cubin
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec
from repro.staticcheck.dataflow import compute_post_dominators, reachable_blocks
from repro.staticcheck.depth import DepthAnalysis, estimate_depths
from repro.staticcheck.liveness import analyze_liveness
from repro.staticcheck.report import FunctionLint, StaticReport
from repro.staticcheck.rules import (
    DEFAULT_RULES,
    LintContext,
    find_divergent_branches,
    run_rules,
)


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
    """Runs the full static lint over CUBINs."""

    def __init__(
        self,
        architecture: Optional[GpuArchitecture] = None,
        strict_architecture: bool = False,
        rules=DEFAULT_RULES,
    ):
        self.analyzer = StaticAnalyzer(
            default_architecture=architecture, strict=strict_architecture
        )
        self.rules = rules

    def check_setup(self, setup, case_id: Optional[str] = None) -> StaticReport:
        """Lint one benchmark :class:`~repro.workloads.base.KernelSetup`."""
        return self.check(
            setup.cubin,
            kernel=setup.kernel,
            config=setup.config,
            workload=setup.workload,
            case_id=case_id,
        )

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
        analysis = self.analyzer.analyze(cubin)
        architecture = analysis.architecture
        kernel_name = kernel or next(iter(cubin.functions))

        report = StaticReport(
            kernel=kernel_name,
            arch_flag=cubin.arch_flag,
            case_id=case_id,
            architecture_fallback=analysis.architecture_fallback,
            ingest=ingest,
        )

        for name in sorted(analysis.structure.functions):
            structure = analysis.structure.functions[name]
            function = structure.function
            cfg = structure.cfg

            liveness = analyze_liveness(cfg)
            depths = estimate_depths(cfg, structure.loop_nest, architecture)
            context = LintContext(
                structure=structure,
                architecture=architecture,
                liveness=liveness,
                divergent_branches=find_divergent_branches(cfg),
                post_dominators=compute_post_dominators(cfg),
                reachable=reachable_blocks(cfg),
                workload=workload if name == kernel_name else None,
            )
            report.diagnostics.extend(run_rules(context, self.rules))

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
                        if block.index not in context.reachable
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


def lint_case(case_or_id, variant: str = "baseline", **checker_kwargs) -> StaticReport:
    """Lint one registry case (accepts a case id or a ``BenchmarkCase``)."""
    from repro.workloads.registry import resolve_case

    case = resolve_case(case_or_id)
    setup = case.build_optimized() if variant == "optimized" else case.build_baseline()
    checker = StaticChecker(**checker_kwargs)
    return checker.check_setup(setup, case_id=case.case_id)
