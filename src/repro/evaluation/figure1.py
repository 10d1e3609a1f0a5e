"""Figure 1: the PC-sampling mental model.

The figure shows an SM whose four schedulers are sampled round-robin every N
cycles; each sample is *active* if the scheduler issued that cycle and
*latency* otherwise, and stall samples carry the sampled warp's stall reason.
``sampling_model_demo`` runs a small kernel through the simulator and returns
the quantities the figure reasons about: the total/active/latency sample
counts, the stall and active ratios, and the per-reason breakdown — the same
estimate of the kernel stall ratio described in Section 2.1.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api.request import AdvisingRequest
from repro.api.session import AdvisingSession
from repro.cubin.builder import CubinBuilder, imm, p
from repro.sampling.sample import LaunchConfig
from repro.sampling.workload import WorkloadSpec


def _toy_kernel() -> CubinBuilder:
    builder = CubinBuilder(module_name="figure1_demo")
    k = builder.kernel("mixed_kernel", source_file="figure1.cu")
    k.at_line(1)
    k.s2r(0, "SR_TID.X")
    k.mov_imm(2, 0x100)
    k.mov_imm(3, 0)
    k.mov_imm(8, 0)
    k.mov_imm(9, 1 << 20)
    k.at_line(5)
    k.isetp(0, 8, 9, "LT")
    with k.loop("body", predicate=p(0)):
        k.at_line(5)
        k.iadd(8, 8, imm(1))
        k.at_line(6)
        k.ldg(4, 2)
        k.at_line(7)
        k.ffma(5, 4, 4, 5)
        k.ffma(6, 6, 6, 6)
        k.ffma(7, 7, 7, 7)
        k.at_line(5)
        k.isetp(0, 8, 9, "LT")
    k.at_line(9)
    k.stg(2, 5)
    k.exit()
    builder.add_function(k.build())
    return builder


def sampling_model_demo(
    sample_period: int = 8,
    arch_flag: str = "sm_70",
    cache_dir: Optional[str] = None,
    simulation_scope: str = "single_wave",
    memory_model: str = "flat",
) -> Dict[str, object]:
    """Run the Figure 1 demonstration and return its sample statistics.

    The demo runs the profiling stage alone — the analyzer is not involved —
    so it drives :meth:`AdvisingSession.profile
    <repro.api.session.AdvisingSession.profile>` with a binary-source
    request.  Under ``simulation_scope="whole_gpu"`` the sample stream comes
    from every SM of the simulated GPU instead of one.
    """
    builder = _toy_kernel()
    session = AdvisingSession(
        architecture=arch_flag, sample_period=sample_period, cache=cache_dir,
        simulation_scope=simulation_scope, memory_model=memory_model,
    )
    profiled = session.profile(
        AdvisingRequest(
            source="binary",
            cubin=builder.build(),
            kernel="mixed_kernel",
            config=LaunchConfig(grid_blocks=320, threads_per_block=128),
            workload=WorkloadSpec(loop_trip_counts={5: 12}),
            arch_flag=arch_flag,
        )
    )
    profile = profiled.profile
    return {
        "sample_period": sample_period,
        "total_samples": profile.total_samples,
        "active_samples": profile.active_samples,
        "latency_samples": profile.latency_samples,
        "active_ratio": profile.active_ratio,
        "stall_ratio": profile.stall_ratio,
        "stalls_by_reason": {
            reason.value: count for reason, count in profile.stalls_by_reason().items()
        },
        "wave_cycles": profile.statistics.wave_cycles,
        "kernel_cycles": profile.statistics.kernel_cycles,
        "warps_per_scheduler": profile.statistics.warps_per_scheduler,
        "simulation_scope": profile.statistics.simulation_scope,
        "memory_model": profile.statistics.memory_model,
    }
