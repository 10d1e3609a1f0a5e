"""Figure 7: single-dependency coverage before and after pruning cold edges.

For every Rodinia benchmark the harness profiles the baseline kernel, builds
the instruction dependency graph, measures single-dependency coverage, prunes
cold edges with the three heuristic rules and measures the coverage again.
The paper's qualitative claims: pruning raises coverage above roughly 0.8 for
most benchmarks, while bfs (64-bit addresses assembled from separately
defined registers) and nw (intricate fully-unrolled control flow) stay lower.

``python -m repro.evaluation.figure7`` prints the table for
:data:`FIGURE7_CASES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.blame.coverage import single_dependency_coverage
from repro.blame.graph import build_dependency_graph
from repro.blame.pruning import prune_cold_edges
from repro.workloads.base import BenchmarkCase
from repro.workloads.registry import case_by_name, rodinia_cases

#: Benchmarks shown in Figure 7 (one per Rodinia kernel we model), including
#: the two outliers the paper discusses (bfs and nw).
FIGURE7_CASES = [
    "rodinia/backprop:warp_balance",
    "rodinia/bfs:loop_unrolling",
    "rodinia/b+tree:code_reorder",
    "rodinia/hotspot:strength_reduction",
    "rodinia/kmeans:loop_unrolling",
    "rodinia/lud:code_reorder",
    "rodinia/nw:warp_balance",
    "rodinia/pathfinder:code_reorder",
    "rodinia/heartwall:loop_unrolling",
    "rodinia/sradv1:warp_balance",
]


@dataclass
class CoverageRow:
    """Coverage of one benchmark before/after pruning."""

    benchmark: str
    kernel: str
    coverage_before: float
    coverage_after: float
    edges_before: int
    edges_after: int
    nodes: int


def evaluate_figure7(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    sample_period: int = 8,
    arch_flag: str = "sm_70",
    cache_dir: Optional[str] = None,
    simulation_scope: str = "single_wave",
    memory_model: str = "flat",
) -> List[CoverageRow]:
    """Compute coverage rows for every (unique) benchmark.

    Profiles each benchmark's baseline kernel on one
    :class:`AdvisingSession`: ``cache_dir`` replays already-simulated
    profiles, ``simulation_scope`` selects the simulation engine and
    ``memory_model`` the memory system the profiles are collected with.
    A failing benchmark raises.
    """
    session = AdvisingSession(
        architecture=arch_flag,
        sample_period=sample_period,
        cache=str(cache_dir) if cache_dir is not None else None,
        simulation_scope=simulation_scope,
        memory_model=memory_model,
    )
    rows: List[CoverageRow] = []
    seen = set()
    for case in cases if cases is not None else rodinia_cases():
        if case.name in seen:
            continue
        seen.add(case.name)
        profiled = session.profile(
            request_for_case(case, "baseline", arch_flag=arch_flag)
        )
        graph = build_dependency_graph(profiled.profile, profiled.structure)
        pruned = graph.copy()
        prune_cold_edges(pruned, profiled.structure, session.architecture)
        rows.append(
            CoverageRow(
                benchmark=case.name,
                kernel=case.kernel,
                coverage_before=single_dependency_coverage(graph),
                coverage_after=single_dependency_coverage(pruned),
                edges_before=len(graph.edges),
                edges_after=len(pruned.edges),
                nodes=len(graph.stalled_nodes()),
            )
        )
    return rows


def format_figure7(rows: Sequence[CoverageRow]) -> str:
    """Render the coverage comparison as an ASCII bar-chart-like table."""
    header = (
        f"{'Benchmark':24s} {'Kernel':28s} {'Before':>8s} {'After':>8s} "
        f"{'Edges':>12s} {'Stalled nodes':>14s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.benchmark:24s} {row.kernel:28s} {row.coverage_before:8.2f} "
            f"{row.coverage_after:8.2f} {row.edges_before:5d} ->{row.edges_after:4d} "
            f"{row.nodes:14d}"
        )
    if rows:
        mean_before = sum(r.coverage_before for r in rows) / len(rows)
        mean_after = sum(r.coverage_after for r in rows) / len(rows)
        lines.append("-" * len(header))
        lines.append(f"{'mean':24s} {'':28s} {mean_before:8.2f} {mean_after:8.2f}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.evaluation.figure7``: print the coverage table."""
    import argparse

    from repro.evaluation.exitcodes import EXIT_OK

    argparse.ArgumentParser(
        prog="python -m repro.evaluation.figure7",
        description="Measure single-dependency coverage before and after "
        "pruning cold edges on the Figure 7 benchmarks and print the table.",
    ).parse_args(argv)
    rows = evaluate_figure7([case_by_name(name) for name in FIGURE7_CASES])
    print(format_figure7(rows))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
