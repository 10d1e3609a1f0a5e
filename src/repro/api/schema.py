"""Schema plumbing of the versioned service-layer API.

Every payload the API emits (:class:`~repro.api.request.AdvisingRequest`,
:class:`~repro.api.result.AdvisingResult`,
:class:`~repro.advisor.report.AdviceReport`,
:class:`~repro.blame.attribution.BlameResult`) carries an explicit
``schema_version`` so that a result dumped by one process — a pool worker, a
service daemon, a remote runner — can be validated before it is reloaded by
another.  Loaders are strict: a payload whose version or kind does not match
raises :class:`ApiSchemaError` instead of silently misparsing.

This module is a leaf: it imports nothing from :mod:`repro`, so any layer
(blame, optimizers, advisor, pipeline) may use it without import cycles.
"""

from __future__ import annotations

import json
from typing import Any

#: Version of the request/result wire format.  Bump whenever a serialized
#: field changes meaning or shape; loaders reject payloads from other
#: versions.
#:
#: Version history:
#:
#: 1. Initial service-layer API.
#: 2. Requests and results carry ``simulation_scope`` (the whole-GPU
#:    simulation engine); launch statistics inside profiles record the scope
#:    that produced them.
#: 3. Requests and results carry ``memory_model`` (the L1/L2/DRAM memory
#:    hierarchy engine); launch statistics record the model that produced
#:    them plus the hierarchy's coalescing/hit-rate statistics; workload
#:    specs carry access-pattern fields (``working_set_bytes``,
#:    ``access_strides``, ``default_access_stride_bytes``).
#: 4. Requests carry ``simulator_backend`` (the object vs. vector simulator
#:    core selection).  Results deliberately do not: the two cores are
#:    bit-identical by contract, so the core that ran is an execution
#:    detail, not part of the answer.
#: 5. The static lint layer adds the ``static_report`` and
#:    ``static_diagnostic`` envelope kinds
#:    (:mod:`repro.staticcheck.report`).  Existing payload shapes are
#:    unchanged; the bump exists so a version-5 consumer can rely on the
#:    new kinds being understood end-to-end.
#: 6. Static reports carry an ``ingest`` field: the coverage ledger of the
#:    real-SASS frontend (:mod:`repro.sass`) when the linted binary was
#:    lowered from an ``nvdisasm``/``cuobjdump`` listing (``null`` for
#:    binaries built in-repo).  The ``unknown-opcode`` lint rule ships with
#:    it, and serialized CUBIN functions may carry a ``"sass"`` raw-listing
#:    section in place of ``"code"`` when their operands do not fit the
#:    fixed-width encoding.
#: 7. Requests carry a ``fingerprint``: the public content digest
#:    (:meth:`AdvisingRequest.fingerprint
#:    <repro.api.request.AdvisingRequest.fingerprint>`) the advising
#:    service coalesces identical submissions by.  Loaders are strict: a
#:    payload whose stated fingerprint does not match its recomputed one is
#:    rejected instead of silently re-keyed.
#: 8. Requests no longer carry ``simulator_backend``: production always runs
#:    the packed-array core, so there is no core to select.  Version-7
#:    payloads are rejected by the envelope check like any other version.
API_SCHEMA_VERSION = 8


class ApiError(Exception):
    """Base class of all service-layer API errors."""


class ApiValidationError(ApiError, ValueError):
    """A request (or builder state) failed validation."""


class ApiSchemaError(ApiError, ValueError):
    """A serialized payload has the wrong schema version or kind."""


class ApiSerializationError(ApiError, ValueError):
    """A value cannot be represented in the wire format (e.g. callables)."""


def envelope(kind: str, payload: dict) -> dict:
    """Wrap ``payload`` in the versioned envelope for ``kind``."""
    return {"schema_version": API_SCHEMA_VERSION, "kind": kind, **payload}


def check_envelope(payload: Any, kind: str) -> dict:
    """Validate the envelope of a loaded payload and return it.

    Raises :class:`ApiSchemaError` on a non-dict payload, a missing or
    mismatched ``schema_version``, or the wrong ``kind``.
    """
    if not isinstance(payload, dict):
        raise ApiSchemaError(
            f"expected a serialized {kind} dict, got {type(payload).__name__}"
        )
    version = payload.get("schema_version")
    if version != API_SCHEMA_VERSION:
        raise ApiSchemaError(
            f"cannot load {kind}: schema version {version!r} "
            f"(this build speaks version {API_SCHEMA_VERSION})"
        )
    found = payload.get("kind")
    if found != kind:
        raise ApiSchemaError(f"expected a {kind!r} payload, got kind {found!r}")
    return payload


def canonical_json(value: Any, context: str = "value") -> Any:
    """``value`` normalized to plain JSON types (dicts/lists/str/num/bool).

    Serialization must be a fixed point of ``dump -> load -> dump``: a live
    object and its reloaded twin must produce identical dictionaries.  Free-
    form payloads (optimizer ``details``) may hold tuples or sets that JSON
    silently turns into lists, so they are canonicalized at dump time.
    Raises :class:`ApiSerializationError` for values JSON cannot express.
    """
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ApiSerializationError(f"{context} is not JSON-serializable: {exc}") from exc


def require_key(payload: dict, key: str, kind: str) -> Any:
    """``payload[key]`` or a uniform :class:`ApiSchemaError`."""
    try:
        return payload[key]
    except KeyError as exc:
        raise ApiSchemaError(f"serialized {kind} is missing the {key!r} field") from exc
