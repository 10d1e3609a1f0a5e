"""Figure 1: the PC-sampling mental model (stall / active ratios)."""

from __future__ import annotations

from repro.evaluation.figure1 import format_figure1, sampling_model_demo


def test_figure1_sampling_model(benchmark):
    demo = benchmark.pedantic(sampling_model_demo, kwargs={"sample_period": 8},
                              iterations=1, rounds=3)

    print()
    print(format_figure1(demo))

    assert demo["total_samples"] == demo["active_samples"] + demo["latency_samples"]
    assert 0.0 < demo["stall_ratio"] < 1.0
