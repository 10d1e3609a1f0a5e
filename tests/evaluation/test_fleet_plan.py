"""The fleet plan: determinism, the disjoint cover, and the wire form."""

import json

import pytest

from repro.evaluation.fleet.plan import (
    EvaluationPlan,
    FleetError,
    SweepConfiguration,
    WorkUnit,
    build_plan,
)


def make_plan(num_shards=3, cases=("z/one", "a/two", "m/three"), configs=None):
    if configs is None:
        configs = (
            SweepConfiguration(),
            SweepConfiguration(simulation_scope="whole_gpu",
                               memory_model="hierarchy"),
        )
    return EvaluationPlan(case_ids=tuple(cases), configurations=tuple(configs),
                          num_shards=num_shards)


class TestPlanDeterminism:
    def test_input_order_never_changes_the_plan(self):
        configs = (SweepConfiguration(),
                   SweepConfiguration(memory_model="hierarchy"))
        forward = make_plan(cases=("a/two", "m/three", "z/one"), configs=configs)
        backward = make_plan(cases=("z/one", "m/three", "a/two"),
                             configs=tuple(reversed(configs)))
        assert forward == backward
        assert forward.plan_id == backward.plan_id
        assert forward.to_json() == backward.to_json()

    def test_duplicate_cases_are_collapsed(self):
        plan = make_plan(cases=("a/two", "a/two", "z/one"))
        assert plan.case_ids == ("a/two", "z/one")

    def test_duplicate_configurations_are_rejected(self):
        with pytest.raises(FleetError, match="duplicate"):
            make_plan(configs=(SweepConfiguration(), SweepConfiguration()))

    def test_different_surface_different_plan_id(self):
        assert make_plan().plan_id != make_plan(cases=("z/one",)).plan_id
        assert make_plan(num_shards=3).plan_id != make_plan(num_shards=4).plan_id

    def test_fingerprints_are_stable_across_shard_counts(self):
        # A unit's identity must not depend on how the plan is partitioned,
        # or checkpoints could never survive a re-plan at another width.
        narrow = make_plan(num_shards=1)
        wide = make_plan(num_shards=7)
        assert [u.fingerprint for u in narrow.units()] == [
            u.fingerprint for u in wide.units()
        ]

    def test_fingerprint_digests_every_knob(self):
        base = WorkUnit("a/two", SweepConfiguration())
        assert base.fingerprint != WorkUnit("z/one", SweepConfiguration()).fingerprint
        for variant in (
            SweepConfiguration(simulation_scope="whole_gpu"),
            SweepConfiguration(memory_model="hierarchy"),
            SweepConfiguration(arch_flag="sm_80"),
            SweepConfiguration(sample_period=16),
        ):
            assert WorkUnit("a/two", variant).fingerprint != base.fingerprint


class TestPartition:
    def test_shards_are_a_disjoint_cover(self):
        plan = make_plan(num_shards=4)
        seen = []
        for shard in range(plan.num_shards):
            seen.extend(plan.shard_units(shard))
        assert sorted(u.fingerprint for u in seen) == sorted(
            u.fingerprint for u in plan.units()
        )
        assert len(seen) == len(plan.units())
        for unit in plan.units():
            assert unit in plan.shard_units(plan.shard_of(unit))

    def test_single_shard_holds_everything(self):
        plan = make_plan(num_shards=1)
        assert plan.shard_units(0) == plan.units()

    def test_shard_out_of_range(self):
        plan = make_plan(num_shards=2)
        with pytest.raises(FleetError, match="out of range"):
            plan.shard_units(2)

    def test_matrix_omits_empty_shards(self):
        # 1 unit across 5 shards: exactly one leg, and it names its shard.
        plan = make_plan(num_shards=5, cases=("z/one",),
                         configs=(SweepConfiguration(),))
        include = plan.matrix_include()
        assert len(include) == 1
        (leg,) = include
        assert leg["units"] == 1
        assert leg["name"] == f"shard-{leg['shard']}"
        assert plan.shard_units(leg["shard"])

    def test_matrix_units_sum_to_the_plan(self):
        plan = make_plan(num_shards=3)
        include = plan.matrix_include()
        assert sum(leg["units"] for leg in include) == len(plan.units())


class TestWireForm:
    def test_round_trip(self):
        plan = make_plan()
        reloaded = EvaluationPlan.from_dict(json.loads(plan.to_json()))
        assert reloaded == plan
        assert reloaded.plan_id == plan.plan_id

    def test_tampered_plan_is_rejected(self):
        payload = make_plan().to_dict()
        payload["cases"] = list(payload["cases"])[:-1]
        with pytest.raises(FleetError, match="plan id mismatch"):
            EvaluationPlan.from_dict(payload)

    def test_unknown_arch_is_rejected_on_load(self):
        payload = make_plan().to_dict()
        payload["configurations"] = [
            {**entry, "arch_flag": "sm_99"} for entry in payload["configurations"]
        ]
        with pytest.raises(FleetError, match="sm_99"):
            EvaluationPlan.from_dict(payload)

    def test_wrong_kind_and_schema_are_rejected(self):
        payload = make_plan().to_dict()
        with pytest.raises(FleetError, match="fleet_plan"):
            EvaluationPlan.from_dict({**payload, "kind": "something"})
        with pytest.raises(FleetError, match="schema version"):
            EvaluationPlan.from_dict({**payload, "schema_version": 99})
        with pytest.raises(FleetError, match="fingerprint version"):
            EvaluationPlan.from_dict({**payload, "fingerprint_version": 99})


class TestBuildPlan:
    def test_unknown_case_fails_at_plan_time(self):
        with pytest.raises(FleetError, match="unknown benchmark case"):
            build_plan(case_ids=["rodinia/no-such-case:nope"])

    def test_registry_default_with_limit(self):
        plan = build_plan(limit=3, num_shards=2)
        assert len(plan.case_ids) == 3
        assert len(plan.units()) == 3

    def test_bad_configuration_values(self):
        with pytest.raises(FleetError, match="sample_period"):
            SweepConfiguration(sample_period=0)
        with pytest.raises(FleetError, match="unknown architecture flag 'sm_99'"):
            SweepConfiguration(arch_flag="sm_99")
        with pytest.raises(Exception):
            SweepConfiguration(simulation_scope="half_wave")
