"""The ExperimentSpec / RunResult protocol: experiments as plain values.

Every experiment entry point in the library follows one contract:

* a **spec** is a frozen dataclass of plain, JSON-serializable values --
  no live simulator objects -- exposing ``kind`` (a class-level string),
  ``to_dict()`` and ``from_dict()``;
* a **result** is a dataclass exposing ``to_dict()`` / ``from_dict()``
  whose serialized form round-trips losslessly.

The built-in kinds get both pairs from :mod:`repro.sim.codec`, the one
module that decides the wire form (only ``StreamingRunResult``'s summary
block is written by hand); this module adds the ``{"kind", "spec"}``
envelope and the content address.

That contract is what lets :mod:`repro.experiments.exec` fan runs out to
process-pool workers (specs and results cross the boundary as dicts) and
cache results on disk keyed by :func:`spec_hash` (a content address of
the spec).  Each workload module registers its kind here at import time:

=============  ==============================================  ==================
kind           spec                                            runner
=============  ==============================================  ==================
streaming      :class:`repro.experiments.runner.StreamingSpec` ``run_streaming``
bulk_download  :class:`repro.apps.bulk.BulkDownloadSpec`       ``run_bulk``
web_browsing   :class:`repro.workloads.web.WebBrowsingSpec`    ``run_web``
=============  ==============================================  ==================

:func:`run_spec` dispatches a spec of any registered kind to its runner;
:func:`spec_from_dict` / :func:`result_from_dict` rebuild the typed
objects from the wire format.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Mapping, Protocol, Tuple, runtime_checkable

from repro.sim.codec import SCHEMA_VERSION, canonical_json


@runtime_checkable
class ExperimentSpec(Protocol):
    """What every runnable experiment description provides."""

    kind: str
    to_dict: Callable[[], Dict[str, Any]]


@runtime_checkable
class RunResult(Protocol):
    """What every experiment outcome provides."""

    to_dict: Callable[[], Dict[str, Any]]


@dataclass(frozen=True)
class ExperimentKind:
    """One registered experiment family."""

    kind: str
    spec_from_dict: Callable[[Mapping[str, Any]], Any]
    run: Callable[[Any], Any]
    result_from_dict: Callable[[Mapping[str, Any]], Any]


_KINDS: Dict[str, ExperimentKind] = {}


def register_experiment(
    kind: str,
    spec_from_dict: Callable[[Mapping[str, Any]], Any],
    run: Callable[[Any], Any],
    result_from_dict: Callable[[Mapping[str, Any]], Any],
) -> None:
    """Register (or replace) an experiment kind.

    Workload modules call this at import time; tests register throwaway
    kinds to exercise executor edge cases.
    """
    _KINDS[kind] = ExperimentKind(kind, spec_from_dict, run, result_from_dict)


def _ensure_builtin_kinds() -> None:
    """Import the workload modules so their kinds are registered.

    Lazy to avoid import cycles: runner/bulk/web import nothing from the
    executor, and this module imports them only when dispatch is needed
    (notably inside fresh pool-worker processes).
    """
    import repro.apps.bulk  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.workloads.web  # noqa: F401


def registered_experiment_kinds() -> FrozenSet[str]:
    """Every kind :func:`run_spec` dispatches (built-ins imported first)."""
    _ensure_builtin_kinds()
    return frozenset(_KINDS)


def experiment_kind(kind: str) -> ExperimentKind:
    """Look up a registered kind (importing the built-ins on first use)."""
    if kind not in _KINDS:
        _ensure_builtin_kinds()
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown experiment kind {kind!r}; registered: {sorted(_KINDS)}"
        ) from None


def run_spec(spec: ExperimentSpec) -> Any:
    """Execute one spec synchronously in this process."""
    return experiment_kind(spec.kind).run(spec)


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, Any]:
    """Wire format of a spec: its kind plus its own ``to_dict``."""
    return {"kind": spec.kind, "spec": spec.to_dict()}


def spec_from_dict(data: Mapping[str, Any]) -> Any:
    """Rebuild a typed spec from :func:`spec_to_dict` output."""
    return experiment_kind(data["kind"]).spec_from_dict(data["spec"])


def result_from_dict(kind: str, data: Mapping[str, Any]) -> Any:
    """Rebuild a typed result from its serialized form."""
    return experiment_kind(kind).result_from_dict(data)


def attach_perf(result: RunResult, perf: Dict[str, Any]) -> None:
    """Attach a per-run perf record to a result's optional ``perf`` field.

    Every registered result type carries ``perf`` as an additive optional
    field (absent from the wire format when None).  Results may be frozen
    dataclasses, so the write goes through ``object.__setattr__``.
    """
    if not hasattr(result, "perf"):
        raise TypeError(
            f"{type(result).__name__} has no 'perf' field; results must "
            "declare one to carry perf records"
        )
    object.__setattr__(result, "perf", perf)


def wire_hash(wire: Mapping[str, Any]) -> str:
    """Content address of a spec's wire form (:func:`spec_to_dict` output).

    Stable across processes and sessions (unlike ``hash()``), so it keys
    the on-disk result cache.  The schema version is mixed in: a wire-
    format change invalidates old cache entries rather than mis-reading
    them.  A caller that stores the wire text as well (the campaign
    store) takes both from :func:`encode_spec`, one encoding.
    """
    payload = {"schema_version": SCHEMA_VERSION, **wire}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


#: Where :func:`wire_hash`'s payload differs from the wire text: sorted,
#: ``"schema_version"`` falls between ``"kind"`` and ``"spec"``.
_SPEC_KEY = ',"spec":'
_VERSION_ITEM = f',"schema_version":{SCHEMA_VERSION}'


def encode_spec(spec: ExperimentSpec) -> Tuple[str, str]:
    """``(text, key)`` of a spec from one encoding: ``text`` is the
    :func:`canonical_json` of its wire form, ``key`` its
    :func:`spec_hash`.  The key hashes ``text`` with the schema version
    spliced in after ``"kind"``, which is byte for byte the payload
    :func:`wire_hash` encodes (a string value escapes its quotes, so the
    first ``,"spec":`` is the key's)."""
    text = canonical_json(spec_to_dict(spec))
    cut = text.index(_SPEC_KEY)
    payload = text[:cut] + _VERSION_ITEM + text[cut:]
    return text, hashlib.sha256(payload.encode()).hexdigest()


def spec_hash(spec: ExperimentSpec) -> str:
    """Content address of a spec: :func:`wire_hash` of its wire form."""
    return encode_spec(spec)[1]
