"""The declarative advising request.

An :class:`AdvisingRequest` describes one advising job completely and
declaratively — *what* to analyze (a registry benchmark case, an inline
binary + launch, or a previously dumped profile) and *how* (architecture,
sample period, simulation scope, memory model, optimizer selection) —
without saying anything about execution.  The same request object drives
every execution mode of :class:`~repro.api.session.AdvisingSession`: inline,
ordered batch, and the process-pool stream, where requests cross the process
boundary through :meth:`AdvisingRequest.to_dict`.

Construct requests directly (``AdvisingRequest(source="case",
case_id="rodinia/hotspot:strength_reduction", arch_flag="sm_80")``), from a
benchmark case with :func:`request_for_case`, or from raw disassembly with
:func:`request_for_listing`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.api.schema import (
    ApiSchemaError,
    ApiSerializationError,
    ApiValidationError,
    check_envelope,
    envelope,
    reject_unknown_keys,
    require_key,
)
from repro.arch.machine import ArchitectureError, get_architecture
from repro.cubin.binary import Cubin
from repro.sampling.memory import check_memory_model
from repro.sampling.profiler import check_simulation_scope
from repro.sampling.sample import KernelProfile, LaunchConfig
from repro.sampling.workload import WorkloadSpec

#: The three ways a request can name its subject.
SOURCES = ("case", "binary", "profile")
#: Benchmark-case variants (Table 3 pairs a baseline with a hand-tuned twin).
VARIANTS = ("baseline", "optimized")

#: Version of the request-fingerprint digest.  Bumped when the digest's
#: inputs change shape; deliberately decoupled from
#: :data:`~repro.api.schema.API_SCHEMA_VERSION` so an additive schema bump
#: does not invalidate idempotency keys clients already hold.
#:
#: Version history:
#:
#: 1. Initial digest (API schema 7).
#: 2. The digested wire body no longer carries ``simulator_backend``
#:    (API schema 8).
#: 3. The digested wire body no longer carries a cache policy
#:    (API schema 9).
FINGERPRINT_VERSION = 3

#: Request fields the fingerprint deliberately ignores: ``label`` is
#: display-only — relabelling a request must not defeat coalescing.
FINGERPRINT_EXCLUDED = ("label",)


@dataclass(frozen=True)
class AdvisingRequest:
    """One advising job, validated at construction.

    Exactly one source is populated:

    * ``source="case"`` — ``case_id`` names a registry benchmark case and
      ``variant`` picks its baseline or hand-optimized setup;
    * ``source="binary"`` — ``cubin``/``kernel``/``config`` (and optionally
      ``workload``) describe an inline kernel launch;
    * ``source="profile"`` — ``profile`` is an already-collected
      :class:`~repro.sampling.sample.KernelProfile` and ``cubin`` the binary
      it was collected from; only the analysis stage runs.

    ``arch_flag``/``sample_period``/``simulation_scope``/``optimizers``
    default to ``None``, meaning "whatever the session was configured with";
    ``arch_flag`` set explicitly retargets the binary onto that architecture
    model, ``simulation_scope`` picks the simulation engine ("single_wave"
    extrapolates one simulated wave, "whole_gpu" measures the full grid
    across every SM).
    """

    source: str
    case_id: Optional[str] = None
    variant: str = "baseline"
    cubin: Optional[Cubin] = None
    kernel: Optional[str] = None
    config: Optional[LaunchConfig] = None
    workload: Optional[WorkloadSpec] = None
    profile: Optional[KernelProfile] = None
    arch_flag: Optional[str] = None
    sample_period: Optional[int] = None
    simulation_scope: Optional[str] = None
    memory_model: Optional[str] = None
    optimizers: Optional[Tuple[str, ...]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`~repro.api.schema.ApiValidationError` on bad shape."""
        if self.source not in SOURCES:
            raise ApiValidationError(
                f"unknown request source {self.source!r}; expected one of {SOURCES}"
            )
        if self.variant not in VARIANTS:
            raise ApiValidationError(
                f"unknown case variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.source == "case":
            if not self.case_id:
                raise ApiValidationError("a case request needs a case_id")
            if self.cubin is not None or self.profile is not None:
                raise ApiValidationError(
                    "a case request must not also carry a cubin or profile"
                )
        elif self.source == "binary":
            missing = [
                name
                for name, value in (
                    ("cubin", self.cubin),
                    ("kernel", self.kernel),
                    ("config", self.config),
                )
                if value is None
            ]
            if missing:
                raise ApiValidationError(
                    f"a binary request needs cubin, kernel and config "
                    f"(missing: {', '.join(missing)})"
                )
            if self.case_id is not None or self.profile is not None:
                raise ApiValidationError(
                    "a binary request must not also carry a case_id or profile"
                )
        else:  # profile
            if self.profile is None or self.cubin is None:
                raise ApiValidationError(
                    "a profile request needs both the profile and the cubin "
                    "it was collected from"
                )
            if self.case_id is not None:
                raise ApiValidationError(
                    "a profile request must not also carry a case_id"
                )
        if self.sample_period is not None and self.sample_period <= 0:
            raise ApiValidationError(
                f"sample_period must be positive, got {self.sample_period}"
            )
        if self.simulation_scope is not None:
            try:
                check_simulation_scope(self.simulation_scope)
            except ValueError as exc:
                raise ApiValidationError(str(exc)) from exc
        if self.memory_model is not None:
            try:
                check_memory_model(self.memory_model)
            except ValueError as exc:
                raise ApiValidationError(str(exc)) from exc
        if self.arch_flag is not None:
            try:
                get_architecture(self.arch_flag)
            except ArchitectureError as exc:
                raise ApiValidationError(str(exc)) from exc
        if self.optimizers is not None:
            if not isinstance(self.optimizers, tuple) or not all(
                isinstance(name, str) for name in self.optimizers
            ):
                raise ApiValidationError(
                    "optimizers must be a tuple of optimizer names"
                )
            if not self.optimizers:
                raise ApiValidationError(
                    "optimizers must name at least one optimizer (or be None "
                    "for the session's full set)"
                )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A short display label (used for progress events and results)."""
        if self.label:
            return self.label
        if self.source == "case":
            suffix = "" if self.variant == "baseline" else f"@{self.variant}"
            return f"{self.case_id}{suffix}"
        if self.source == "binary":
            return str(self.kernel)
        return f"{self.profile.kernel if self.profile else '?'}@profile"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _wire_body(self) -> dict:
        """The envelope-free field dict both the wire form and the
        fingerprint are built from."""
        return {
            "source": self.source,
            "case_id": self.case_id,
            "variant": self.variant,
            "cubin": self.cubin.to_dict() if self.cubin is not None else None,
            "kernel": self.kernel,
            "config": self.config.to_dict() if self.config is not None else None,
            "workload": self.workload.to_dict() if self.workload is not None else None,
            "profile": self.profile.to_dict() if self.profile is not None else None,
            "arch_flag": self.arch_flag,
            "sample_period": self.sample_period,
            "simulation_scope": self.simulation_scope,
            "memory_model": self.memory_model,
            "optimizers": list(self.optimizers) if self.optimizers is not None else None,
            "label": self.label,
        }

    def fingerprint(self) -> str:
        """The public content digest of this request.

        Two requests share a fingerprint exactly when they describe the same
        job with the same knobs — the ``label`` is display-only and excluded.
        This is the key the advising service coalesces concurrent identical
        submissions under, and the idempotency key a client should attach to
        retried submissions.

        The digest covers the canonical wire form, so it is stable across
        processes and daemon restarts; it is salted with
        :data:`FINGERPRINT_VERSION`, not the API schema version, so additive
        schema bumps do not invalidate held keys.  Raises
        :class:`~repro.api.schema.ApiSerializationError` for requests that
        cannot be serialized (a workload value JSON cannot express) — such
        requests can only run inline, where coalescing never applies.
        """
        body = self._wire_body()
        for name in FINGERPRINT_EXCLUDED:
            del body[name]
        try:
            text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise ApiSerializationError(
                f"request cannot be fingerprinted: {exc}"
            ) from exc
        hasher = hashlib.sha256()
        hasher.update(f"fp{FINGERPRINT_VERSION}\x00".encode("utf-8"))
        hasher.update(text.encode("utf-8"))
        return hasher.hexdigest()

    def to_dict(self) -> dict:
        """The lossless wire form (inverse: :meth:`from_dict`).

        Carries the request's :meth:`fingerprint` so services receiving the
        payload can content-address it without re-deriving anything.  Raises
        :class:`~repro.api.schema.ApiSerializationError` when the request
        embeds a workload value JSON cannot express — such requests can only
        run inline.
        """
        body = self._wire_body()
        body["fingerprint"] = self.fingerprint()
        return envelope("advising_request", body)

    @classmethod
    def from_dict(cls, payload: dict) -> "AdvisingRequest":
        payload = check_envelope(payload, "advising_request")
        reject_unknown_keys(payload, "advising_request", _WIRE_KEYS)
        cubin = payload.get("cubin")
        config = payload.get("config")
        workload = payload.get("workload")
        profile = payload.get("profile")
        optimizers = payload.get("optimizers")
        request = cls(
            source=require_key(payload, "source", "advising_request"),
            case_id=payload.get("case_id"),
            variant=payload.get("variant", "baseline"),
            cubin=Cubin.from_dict(cubin) if cubin is not None else None,
            kernel=payload.get("kernel"),
            config=LaunchConfig.from_dict(config) if config is not None else None,
            workload=WorkloadSpec.from_dict(workload) if workload is not None else None,
            profile=KernelProfile.from_dict(profile) if profile is not None else None,
            arch_flag=payload.get("arch_flag"),
            sample_period=payload.get("sample_period"),
            simulation_scope=payload.get("simulation_scope"),
            memory_model=payload.get("memory_model"),
            optimizers=tuple(optimizers) if optimizers is not None else None,
            label=payload.get("label"),
        )
        # Always digest, so a payload whose content cannot re-serialize fails
        # here, where callers map errors to validation failures.
        fingerprint = request.fingerprint()
        stated = payload.get("fingerprint")
        if stated is not None and stated != fingerprint:
            # Strict: a mis-stated fingerprint means the payload was edited
            # after digesting (or forged for a coalescing collision); reject
            # it rather than silently re-keying.
            raise ApiSchemaError(
                f"advising_request fingerprint mismatch: payload states "
                f"{stated!r} but its content digests to {fingerprint!r}"
            )
        return request


#: The top-level keys of a request's wire form: the envelope, the stated
#: fingerprint, and one per field (the keys of ``_wire_body``).
_WIRE_KEYS = frozenset({"schema_version", "kind", "fingerprint"}).union(
    field.name for field in fields(AdvisingRequest)
)


def request_for_case(
    case_or_id,
    variant: str = "baseline",
    arch_flag: Optional[str] = None,
    sample_period: Optional[int] = None,
    optimizers: Optional[Tuple[str, ...]] = None,
    simulation_scope: Optional[str] = None,
    memory_model: Optional[str] = None,
) -> AdvisingRequest:
    """The request for one benchmark case (id, registry case, or ad-hoc case).

    Registry-backed cases become ``case``-source requests (cheap to
    serialize, so they fan out across process pools); an ad-hoc
    :class:`~repro.workloads.base.BenchmarkCase` not present in the registry
    is materialized into a ``binary``-source request built from its setup.
    """
    # Imported lazily: the registry pulls in every workload module, which
    # `import repro.api` must not pay for.
    from repro.workloads.registry import is_registry_case

    knobs = dict(
        arch_flag=arch_flag, sample_period=sample_period,
        simulation_scope=simulation_scope, memory_model=memory_model,
        optimizers=optimizers,
    )
    if isinstance(case_or_id, str):
        return AdvisingRequest(
            source="case", case_id=case_or_id, variant=variant,
            label=case_or_id, **knobs,
        )
    case = case_or_id
    if is_registry_case(case):
        return AdvisingRequest(
            source="case", case_id=case.case_id, variant=variant,
            label=case.case_id, **knobs,
        )
    setup = case.build_optimized() if variant == "optimized" else case.build_baseline()
    return AdvisingRequest(
        source="binary", cubin=setup.cubin, kernel=setup.kernel,
        config=setup.config, workload=setup.workload,
        label=case.case_id, **knobs,
    )


def request_for_listing(
    text: str,
    kernel: Optional[str] = None,
    config: Optional[LaunchConfig] = None,
    workload: Optional[WorkloadSpec] = None,
    source_name: str = "<sass>",
    default_arch: str = "sm_70",
) -> AdvisingRequest:
    """The ``binary``-source request for raw ``nvdisasm``/``cuobjdump`` text.

    The listing is ingested through :mod:`repro.sass`; ``kernel`` defaults
    to the listing's only function (ambiguous listings must name one),
    ``config`` to a single 128-thread block — enough for linting, while
    advising runs usually pass a real launch.  The request is labelled
    ``source_name``; use :func:`dataclasses.replace` to set further knobs.
    """
    # Imported lazily: `import repro.api` must not pull the SASS frontend.
    from repro.sass.frontend import ingest_listing

    cubin, _ingest = ingest_listing(
        text, source_name=source_name, default_arch=default_arch
    )
    if kernel is None:
        if len(cubin.functions) != 1:
            raise ApiValidationError(
                f"listing {source_name!r} defines "
                f"{sorted(cubin.functions)}; pass kernel= to pick one"
            )
        (kernel,) = cubin.functions
    return AdvisingRequest(
        source="binary",
        cubin=cubin,
        kernel=kernel,
        config=config or LaunchConfig(grid_blocks=1, threads_per_block=128),
        workload=workload,
        label=source_name,
    )
