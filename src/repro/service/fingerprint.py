"""Canonical campaign-spec and per-task content fingerprints.

The cache keys of the whole service live here, so the rules are strict:

* **Spec fingerprints** are computed over the *canonical* form of a
  spec — the builder's own normalized echo of its kwargs, with every
  default filled in, every number coerced (``1`` vs ``1.0``), every
  sequence listed — so two semantically identical specs hash identically
  no matter how the client ordered its JSON keys or which defaults it
  spelled out.  Canonicalization routes through
  :func:`repro.runtime.builder.build_from_spec`, the same code path the
  ledger replays, so a spec that cannot build a graph cannot acquire a
  fingerprint either.

* **Task fingerprints** address individual artifacts: the hash of a
  task's ``(kind, params)`` with every ``"dep_id:name"`` artifact
  reference replaced by the *content* fingerprint of the dependency that
  produces it.  Task ids drop out, so the ``prop_m0`` of one campaign
  and the ``prop_m0`` of another campaign hash equal exactly when their
  whole upstream cones are equal — which, executors being pure functions
  of (params, dependency artifacts), is precisely when their outputs are
  bitwise equal.  This is the key of the cross-campaign propagator store
  (:class:`repro.service.cache.ArtifactCAS`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.runtime.builder import build_from_spec
from repro.runtime.tasks import TaskGraph

__all__ = [
    "SpecError",
    "canonical_spec",
    "normalize_spec",
    "spec_fingerprint",
    "task_fingerprints",
]


#: Executors are pure functions of (params, dependency artifacts) *within
#: one revision of their arithmetic*: a kind whose bytes changed for the
#: same inputs (1: red-black preconditioned solves; 2: ``block`` on the
#: red-black system too) names it here, so a store written before serves
#: none of its entries to the new executor.  Kinds not listed keep their
#: keys; spec fingerprints do not see this.
EXECUTOR_REVISION = {"propagator": 2, "seq_solve": 2}


class SpecError(ValueError):
    """A submitted campaign spec that cannot be validated or built."""


def normalize_spec(spec: Any) -> tuple[TaskGraph, dict, str]:
    """Validate a spec; return ``(graph, canonical spec, fingerprint)``.

    The single entry point the service uses at admission: one build
    yields the graph to execute, the canonical spec to ledger, and the
    content fingerprint to cache under.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"campaign spec must be a JSON object, got {type(spec).__name__}")
    builder = spec.get("builder")
    kwargs = spec.get("kwargs", {})
    if not isinstance(kwargs, dict):
        raise SpecError("spec 'kwargs' must be a JSON object")
    unknown = set(spec) - {"builder", "kwargs"}
    if unknown:
        raise SpecError(f"unknown spec fields {sorted(unknown)!r}")
    try:
        graph, canonical = build_from_spec({"builder": builder, "kwargs": dict(kwargs)})
    except SpecError:
        raise
    except (TypeError, ValueError) as e:
        raise SpecError(f"invalid campaign spec: {e}") from e
    # Round-trip through JSON so the canonical form contains only JSON
    # types (the builders already coerce values; this guards new ones).
    try:
        canonical = json.loads(json.dumps(canonical, sort_keys=True))
    except (TypeError, ValueError) as e:
        raise SpecError(f"spec is not JSON-serializable: {e}") from e
    blob = json.dumps(canonical, sort_keys=True).encode()
    return graph, canonical, hashlib.sha256(blob).hexdigest()[:24]


def canonical_spec(spec: Any) -> dict:
    """The defaults-filled, type-normalized form of a campaign spec."""
    return normalize_spec(spec)[1]


def spec_fingerprint(spec: Any) -> str:
    """Content fingerprint of a campaign spec (24 hex chars).

    Invariant under dict key ordering, tuple-vs-list spelling, int-vs-
    float spelling of numeric kwargs, and omission of defaults.
    """
    return normalize_spec(spec)[2]


def _resolve_refs(value: Any, fps: dict[str, str]) -> Any:
    """Replace ``"task_id:name"`` artifact refs with content addresses."""
    if isinstance(value, str) and ":" in value:
        task_id, _, name = value.partition(":")
        if task_id in fps:
            return f"cas:{fps[task_id]}:{name}"
        return value
    if isinstance(value, dict):
        return {k: _resolve_refs(v, fps) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_resolve_refs(v, fps) for v in value]
    return value


def task_fingerprints(graph: TaskGraph) -> dict[str, str]:
    """Content fingerprint per task, computed in dependency order.

    Only ``kind``, its :data:`EXECUTOR_REVISION` (if any) and the
    ref-resolved ``params`` enter the hash; task ids, priorities,
    duration estimates and retry budgets are scheduling metadata that
    cannot change an executor's output and must not fragment the cache.
    """
    fps: dict[str, str] = {}
    for tid in graph.topo_order():
        task = graph[tid]
        keyed = {"kind": task.kind, "params": _resolve_refs(task.params, fps)}
        if task.kind in EXECUTOR_REVISION:
            keyed["rev"] = EXECUTOR_REVISION[task.kind]
        blob = json.dumps(keyed, sort_keys=True).encode()
        fps[tid] = hashlib.sha256(blob).hexdigest()[:32]
    return fps
