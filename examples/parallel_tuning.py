#!/usr/bin/env python
"""Section 5.2.2: tuning launch configurations with the parallel estimator.

Takes the gaussian Fan2 kernel (launched with 16-thread blocks, the largest
win in Table 3) and sweeps candidate block sizes, printing the estimator's
CW / CI / f factors and estimated speedup (Equations 6-10) next to the
speedup measured by actually re-simulating each configuration.

Run with:  python examples/parallel_tuning.py
"""

from repro import AdvisingRequest, AdvisingSession, LaunchConfig
from repro.estimators.parallel import ParallelEstimator
from repro.workloads.rodinia import gaussian


def profile(session, setup):
    """Simulate one kernel setup (no analysis)."""
    return session.profile(
        AdvisingRequest(
            source="binary", cubin=setup.cubin, kernel=setup.kernel,
            config=setup.config, workload=setup.workload,
        )
    )


def main():
    session = AdvisingSession(sample_period=8)
    baseline = gaussian.baseline()
    profiled = profile(session, baseline)
    estimator = ParallelEstimator()
    total_threads = baseline.config.total_threads

    print(f"Baseline launch: {baseline.config.grid_blocks} blocks x "
          f"{baseline.config.threads_per_block} threads "
          f"({profiled.profile.statistics.warps_per_scheduler:.1f} warps/scheduler, "
          f"issue ratio {profiled.profile.issue_rate:.2f})\n")
    print(f"{'threads/block':>13s} {'blocks':>8s} {'CW':>6s} {'CI':>6s} {'f':>6s} "
          f"{'estimated':>10s} {'measured':>9s}")

    for threads in (16, 32, 64, 128, 256, 512):
        blocks = max(1, total_threads // threads)
        estimate = estimator.estimate(profiled.profile, LaunchConfig(blocks, threads))
        candidate = gaussian._build(threads_per_block=threads)
        measured_profile = profile(session, candidate)
        measured = profiled.kernel_cycles / measured_profile.kernel_cycles
        print(f"{threads:13d} {blocks:8d} {estimate.cw:6.2f} {estimate.ci:6.2f} "
              f"{estimate.f:6.2f} {estimate.speedup:9.2f}x {measured:8.2f}x")

    print("\nThe paper reports 3.86x achieved / 3.33x estimated for increasing "
          "Fan2's block size on the V100.")


if __name__ == "__main__":
    main()
