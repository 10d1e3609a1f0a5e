"""The declarative fleet-evaluation plan.

An :class:`EvaluationPlan` enumerates the full evaluation surface — every
benchmark case crossed with every :class:`SweepConfiguration` (simulation
scope, memory model, architecture, sample period) — as
:class:`WorkUnit` objects and partitions them into deterministic shards.

Determinism is the whole point: a unit's **fingerprint** digests the case
label and every knob, its shard is the fingerprint reduced modulo the shard
count, and the plan's **plan id** digests the normalized inputs.  The same
cases and configurations therefore always produce the same plan id, the
same fingerprints and the same partition — on any machine, in any input
order — which is what lets a killed sweep resume against checkpoints
written by an earlier process (and lets a CI matrix leg trust that "shard
3" means the same units it meant in the previous attempt).

The partition is a disjoint cover by construction (every unit lands in
exactly one shard) and unit fingerprints are independent of the shard
count, so re-planning the same surface at a different width never changes
what any unit *is* — only where it runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sampling.memory import check_memory_model
from repro.sampling.profiler import check_simulation_scope

#: Version of the plan wire form.  Bumped when the JSON layout changes.
#:
#: Version history:
#:
#: 1. Initial plan layout.
#: 2. Configurations no longer carry ``simulator_backend``.
PLAN_SCHEMA_VERSION = 2

#: Version of the unit-fingerprint digest.  Bumped when the digest's inputs
#: change shape; checkpoints keyed under another version never match, so a
#: resume against them re-runs from scratch instead of mispairing units.
#:
#: Version history:
#:
#: 1. Initial digest.
#: 2. The digested configuration no longer carries ``simulator_backend``.
FLEET_FINGERPRINT_VERSION = 2

#: Hex digits kept from the sha256 digests (80 bits; collisions across a
#: few hundred units are beyond negligible, and short ids keep checkpoints
#: and artifact diffs readable).
_DIGEST_CHARS = 20


class FleetError(Exception):
    """An infrastructure-shaped fleet failure (bad plan, bad checkpoint)."""


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:_DIGEST_CHARS]


@dataclass(frozen=True)
class SweepConfiguration:
    """One point of the evaluation knob space, validated at construction."""

    simulation_scope: str = "single_wave"
    memory_model: str = "flat"
    arch_flag: str = "sm_70"
    sample_period: int = 8

    def __post_init__(self) -> None:
        check_simulation_scope(self.simulation_scope)
        check_memory_model(self.memory_model)
        if self.sample_period <= 0:
            raise FleetError(
                f"sample_period must be positive, got {self.sample_period}"
            )
        if not self.arch_flag:
            raise FleetError("arch_flag must be non-empty")

    @property
    def key(self) -> str:
        """A stable human-readable identity, used for grouping and display."""
        return "+".join((
            self.simulation_scope,
            self.memory_model,
            self.arch_flag,
            f"p{self.sample_period}",
        ))

    def to_dict(self) -> dict:
        return {
            "simulation_scope": self.simulation_scope,
            "memory_model": self.memory_model,
            "arch_flag": self.arch_flag,
            "sample_period": self.sample_period,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepConfiguration":
        if not isinstance(payload, dict):
            raise FleetError(
                f"expected a configuration dict, got {type(payload).__name__}"
            )
        try:
            return cls(
                simulation_scope=payload.get("simulation_scope", "single_wave"),
                memory_model=payload.get("memory_model", "flat"),
                arch_flag=payload.get("arch_flag", "sm_70"),
                sample_period=payload.get("sample_period", 8),
            )
        except (ValueError, TypeError) as exc:
            raise FleetError(f"bad sweep configuration: {exc}") from exc


@dataclass(frozen=True)
class WorkUnit:
    """One (case, configuration) evaluation: the atom of the fleet sweep."""

    case_id: str
    config: SweepConfiguration

    @cached_property
    def fingerprint(self) -> str:
        """Stable digest of the case label plus every knob.

        Checkpoint entries are keyed by this, so a resumed shard recognizes
        completed units across processes and machines.  Deliberately
        independent of the plan's shard count and of every other unit.
        """
        return _digest(
            {
                "fleet_fingerprint_version": FLEET_FINGERPRINT_VERSION,
                "case": self.case_id,
                "config": self.config.to_dict(),
            }
        )


@dataclass(frozen=True)
class EvaluationPlan:
    """The case x configuration matrix, partitioned into deterministic shards.

    Inputs are normalized at construction — cases and configurations are
    deduplicated and sorted — so two plans built from the same surface in
    any order are equal, share a plan id, and partition identically.
    """

    case_ids: Tuple[str, ...]
    configurations: Tuple[SweepConfiguration, ...]
    num_shards: int = 1

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise FleetError(f"num_shards must be >= 1, got {self.num_shards}")
        if not self.case_ids:
            raise FleetError("a plan needs at least one case")
        if not self.configurations:
            raise FleetError("a plan needs at least one configuration")
        object.__setattr__(
            self, "case_ids", tuple(sorted(set(self.case_ids)))
        )
        configs = {config.key: config for config in self.configurations}
        if len(configs) != len(self.configurations):
            raise FleetError("duplicate configurations in plan")
        object.__setattr__(
            self,
            "configurations",
            tuple(configs[key] for key in sorted(configs)),
        )

    # ------------------------------------------------------------------
    @cached_property
    def plan_id(self) -> str:
        """Digest of the normalized inputs: same surface, same id."""
        return _digest(
            {
                "plan_schema_version": PLAN_SCHEMA_VERSION,
                "fleet_fingerprint_version": FLEET_FINGERPRINT_VERSION,
                "cases": list(self.case_ids),
                "configurations": [
                    config.to_dict() for config in self.configurations
                ],
                "num_shards": self.num_shards,
            }
        )

    @cached_property
    def _units(self) -> Tuple[WorkUnit, ...]:
        return tuple(
            WorkUnit(case_id=case_id, config=config)
            for case_id in self.case_ids
            for config in self.configurations
        )

    def units(self) -> List[WorkUnit]:
        """Every unit of the plan, in (case, configuration-key) order."""
        return list(self._units)

    def shard_of(self, unit: WorkUnit) -> int:
        """The one shard ``unit`` belongs to (fingerprint mod shard count)."""
        return int(unit.fingerprint, 16) % self.num_shards

    def shard_units(self, shard: int) -> List[WorkUnit]:
        """The units of one shard, in plan order."""
        if not 0 <= shard < self.num_shards:
            raise FleetError(
                f"shard {shard} out of range for a {self.num_shards}-shard plan"
            )
        return [unit for unit in self._units if self.shard_of(unit) == shard]

    def unit_by_fingerprint(self) -> Dict[str, WorkUnit]:
        return {unit.fingerprint: unit for unit in self._units}

    # ------------------------------------------------------------------
    def matrix_include(self) -> List[dict]:
        """The GitHub Actions matrix include-list: one leg per loaded shard.

        Shards that received no units (possible when the shard count
        exceeds the unit count) are omitted — an empty leg would spend a
        runner proving nothing.
        """
        include = []
        for shard in range(self.num_shards):
            units = self.shard_units(shard)
            if units:
                include.append(
                    {
                        "shard": shard,
                        "name": f"shard-{shard}",
                        "units": len(units),
                    }
                )
        return include

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The plan's wire form.  The ``shards`` section is derived (and
        re-derived on load); it is written out so humans and CI scripts can
        read the partition without running Python."""
        return {
            "kind": "fleet_plan",
            "schema_version": PLAN_SCHEMA_VERSION,
            "fingerprint_version": FLEET_FINGERPRINT_VERSION,
            "plan_id": self.plan_id,
            "num_shards": self.num_shards,
            "cases": list(self.case_ids),
            "configurations": [config.to_dict() for config in self.configurations],
            "shards": [
                {
                    "shard": shard,
                    "units": [
                        {
                            "case": unit.case_id,
                            "config": unit.config.key,
                            "fingerprint": unit.fingerprint,
                        }
                        for unit in self.shard_units(shard)
                    ],
                }
                for shard in range(self.num_shards)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvaluationPlan":
        """Reload a dumped plan, verifying identity end to end.

        The stated ``plan_id`` must match the one recomputed from the
        reloaded inputs — a hand-edited plan (or one written by a different
        fingerprint version) is rejected instead of silently mispairing
        against existing checkpoints.
        """
        if not isinstance(payload, dict):
            raise FleetError(
                f"expected a serialized plan dict, got {type(payload).__name__}"
            )
        if payload.get("kind") != "fleet_plan":
            raise FleetError(
                f"expected a fleet_plan payload, got kind {payload.get('kind')!r}"
            )
        if payload.get("schema_version") != PLAN_SCHEMA_VERSION:
            raise FleetError(
                f"cannot load plan: schema version "
                f"{payload.get('schema_version')!r} (this build speaks "
                f"{PLAN_SCHEMA_VERSION})"
            )
        if payload.get("fingerprint_version") != FLEET_FINGERPRINT_VERSION:
            raise FleetError(
                f"cannot load plan: fingerprint version "
                f"{payload.get('fingerprint_version')!r} (this build digests "
                f"version {FLEET_FINGERPRINT_VERSION})"
            )
        try:
            plan = cls(
                case_ids=tuple(payload["cases"]),
                configurations=tuple(
                    SweepConfiguration.from_dict(entry)
                    for entry in payload["configurations"]
                ),
                num_shards=payload["num_shards"],
            )
        except KeyError as exc:
            raise FleetError(f"serialized plan is missing {exc}") from exc
        stated = payload.get("plan_id")
        if stated != plan.plan_id:
            raise FleetError(
                f"plan id mismatch: file states {stated!r} but the inputs "
                f"digest to {plan.plan_id!r} (edited by hand?)"
            )
        return plan

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def build_plan(
    case_ids: Optional[Sequence[str]] = None,
    configurations: Optional[Sequence[SweepConfiguration]] = None,
    num_shards: int = 1,
    limit: Optional[int] = None,
) -> EvaluationPlan:
    """Build a plan over registry cases (default: all of them).

    ``limit`` truncates the registry's case list *before* planning (the
    mini-matrix knob of the CI smoke); explicit ``case_ids`` are validated
    against the registry so a typo fails at plan time, not mid-sweep.
    """
    # Imported lazily: the registry constructs every workload module.
    from repro.workloads.registry import case_by_name, case_names

    if case_ids is None:
        ids: List[str] = case_names()
    else:
        ids = list(case_ids)
        for case_id in ids:
            try:
                case_by_name(case_id)
            except KeyError as exc:
                raise FleetError(f"unknown benchmark case {case_id!r}") from exc
    if limit is not None:
        if limit < 1:
            raise FleetError(f"limit must be >= 1, got {limit}")
        ids = ids[:limit]
    if configurations is None:
        configurations = [SweepConfiguration()]
    return EvaluationPlan(
        case_ids=tuple(ids),
        configurations=tuple(configurations),
        num_shards=num_shards,
    )


__all__ = [
    "FLEET_FINGERPRINT_VERSION",
    "PLAN_SCHEMA_VERSION",
    "EvaluationPlan",
    "FleetError",
    "SweepConfiguration",
    "WorkUnit",
    "build_plan",
]
