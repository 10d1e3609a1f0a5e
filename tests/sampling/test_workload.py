"""Tests for workload specifications."""

from dataclasses import fields

import pytest

from repro.sampling.workload import WorkloadSpec


def test_trip_count_defaults_and_overrides():
    spec = WorkloadSpec(loop_trip_counts={10: 7}, default_trip_count=3)
    assert spec.trip_count(10, warp_id=0) == 7
    assert spec.trip_count(99, warp_id=0) == 3
    assert spec.trip_count(None, warp_id=0) == 3


def test_tuple_trip_counts_model_imbalance():
    spec = WorkloadSpec(loop_trip_counts={10: (20,) + (2,) * 7})
    assert spec.trip_count(10, 0) == 20
    assert spec.trip_count(10, 3) == 2
    # The tuple repeats across the grid: warp 8 starts the next period.
    assert spec.trip_count(10, 8) == 20


def test_wire_form_covers_every_field():
    """The profile-cache key digests the wire form, so a field left out of
    ``to_dict`` would replay profiles across workloads that differ in it."""
    assert set(WorkloadSpec().to_dict()) == {field.name for field in fields(WorkloadSpec)}


def test_tuple_trip_counts_round_trip_as_lists():
    spec = WorkloadSpec(loop_trip_counts={10: (20, 3), 11: 5})
    dumped = spec.to_dict()
    assert dumped["loop_trip_counts"] == {"10": [20, 3], "11": 5}
    assert WorkloadSpec.from_dict(dumped) == spec


def test_empty_trip_count_list_cannot_serialize():
    spec = WorkloadSpec.from_dict({"loop_trip_counts": {"10": []}})
    with pytest.raises(ValueError):
        spec.to_dict()


def test_branch_probability_lookup():
    spec = WorkloadSpec(branch_taken={30: 0.9}, default_branch_taken=0.25)
    assert spec.branch_probability(30) == 0.9
    assert spec.branch_probability(31) == 0.25


def test_call_targets_and_transactions():
    spec = WorkloadSpec(call_targets={5: "helper"}, uncoalesced_lines={7},
                        uncoalesced_transactions=8)
    assert spec.call_target(5) == "helper"
    assert spec.call_target(6) is None
    assert spec.transactions(7) == 8
    assert spec.transactions(8) == 1


def test_rng_is_deterministic_per_warp():
    spec = WorkloadSpec(seed=11)
    assert spec.rng_for_warp(3).random() == spec.rng_for_warp(3).random()
    assert spec.rng_for_warp(3).random() != spec.rng_for_warp(4).random()


def test_copy_overrides_without_mutating_original():
    spec = WorkloadSpec(loop_trip_counts={10: 7})
    copy = spec.copy(memory_latency_scale=2.0, loop_trip_counts={10: 99})
    assert spec.loop_trip_counts[10] == 7
    assert copy.loop_trip_counts[10] == 99
    assert copy.memory_latency_scale == 2.0
    assert spec.memory_latency_scale == 1.0
