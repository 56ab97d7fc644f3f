"""Runtime checkpoint/fork of a live simulation.

The substrate of the counterfactual twin
(:mod:`repro.experiments.twin`), and the one enforcer of the snapshot
contract: a class's ``STATE_FIELDS`` tuple is its complete mutable
state, and :func:`capture` refuses, per instance, anything outside it.
:func:`capture` walks the object graph from the
:class:`~repro.sim.engine.Simulator` and any extra roots, deep-copying
exactly the ``STATE_FIELDS`` every class declares:

* the engine heap, including live :class:`~repro.sim.engine.Timer`\\ s --
  their callbacks (bound methods of other snapshotted objects) are
  encoded as *(owner, method-name)* pairs and rebound through the
  restore registry, never copied raw;
* :class:`~repro.sim.rng.RngRegistry` streams via ``Random.getstate`` /
  ``setstate``;
* receiver reassembly maps, subflow retransmission state, congestion
  controllers, RTT estimators (deque ``maxlen`` preserved), schedulers.

The walk is *refusing* by construction, in both directions:

* an object whose class declares no ``STATE_FIELDS`` (and is not a
  dataclass) cannot be captured;
* an instance attribute (or filled slot) outside the declared contract
  is an error, on a subclass as on the class that declared it;
* opaque callables (lambdas, closures) are rejected with a pointer at
  the offending field, because no registry can rebind them -- as is
  anything else no contract covers (an open file, a live generator).

Nothing checks the declarations statically.  Every scheduler and
congestion controller is captured, restored and replayed in
``tests/test_snapshot.py``, whose ``TestModelCoverage`` fails by name
when a class declaring ``STATE_FIELDS`` appears in no fixture world.

:func:`restore` rebuilds the world two-phase -- blank instances first,
then field fills with references resolved through the registry -- and
:func:`fork` layers a caller override (e.g. forcing the opposite ECF
decision) on a restored world.  Since the simulator is deterministic,
``capture`` at an event boundary followed by ``restore`` replays the
original future byte-identically; the twin driver in
:mod:`repro.experiments.twin` builds on exactly that property.

Checkpoints are event-boundary only: :func:`capture` refuses while
``Simulator.run()`` is on the stack, because the Python frames of a
half-executed callback are not state the protocol can copy.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import random
import types
from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.sim.engine import Simulator

__all__ = ["Snapshot", "SnapshotError", "capture", "restore", "fork"]

_PRIMITIVES = (type(None), bool, int, float, str, bytes)
#: The same types for an exact ``type(value) in`` test; their subclasses
#: (``IntEnum``, a ``str`` subclass) take the ``isinstance`` chain.
_ATOMS = frozenset(_PRIMITIVES)


class SnapshotError(RuntimeError):
    """A capture or restore hit state outside the snapshot contract."""


class Snapshot:
    """An immutable deep copy of a simulation world.

    ``nodes`` is the object table in registration order (node 0 is the
    simulator); ``roots`` maps the caller's root names to encoded
    values.  Two captures of identical world state produce structurally
    identical snapshots, so :meth:`digest` doubles as a cheap
    state-equality probe.
    """

    __slots__ = ("nodes", "roots")

    def __init__(self, nodes: List[Dict[str, Any]], roots: Dict[str, Any]) -> None:
        self.nodes = list(nodes)
        self.roots = dict(roots)

    def digest(self) -> str:
        """Deterministic fingerprint of the captured state."""
        payload = repr((self.nodes, sorted(self.roots.items())))
        return hashlib.sha256(payload.encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self.nodes == other.nodes and self.roots == other.roots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot({len(self.nodes)} objects, roots={sorted(self.roots)})"


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _declared_fields(cls: type) -> Optional[Tuple[str, ...]]:
    """Effective STATE_FIELDS: base-first union over the MRO, or None."""
    names: List[str] = []
    seen: Set[str] = set()
    declared = False
    for klass in reversed(cls.__mro__):
        own = klass.__dict__.get("STATE_FIELDS")
        if own is None:
            continue
        declared = True
        for name in own:
            if name not in seen:
                seen.add(name)
                names.append(name)
    return tuple(names) if declared else None


class _Plan:
    """What the walk asks of a class, derived once per class object.

    Keyed on the class itself (two local classes may share a qualified
    name) and scoped to one capture.  Whether an *instance* honours the
    contract is not a class fact: that is checked per object.
    """

    __slots__ = ("qual", "fields", "declared", "slots", "undeclared_slots")

    def __init__(self, cls: type, fields: Tuple[str, ...]) -> None:
        self.qual = _qualname(cls)
        self.fields = fields
        self.declared = frozenset(fields)
        self.slots = frozenset(
            slot
            for klass in cls.__mro__
            for slot in klass.__dict__.get("__slots__", ())
            if slot not in ("__dict__", "__weakref__")
        )
        self.undeclared_slots = tuple(self.slots - self.declared)


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------


class _Capture:
    def __init__(self) -> None:
        self.nodes: List[Dict[str, Any]] = []
        self.memo: Dict[int, int] = {}
        self.plans: Dict[type, _Plan] = {}

    def encode(self, value: Any, where: str) -> Any:
        cls = type(value)
        if cls in _ATOMS:
            return value
        index = self.memo.get(id(value))
        if index is not None:
            return {"__snap__": "ref", "id": index}
        plan = self.plans.get(cls)
        if plan is not None:
            return self._encode_object(value, plan)
        if cls is tuple and _ATOMS.issuperset(map(type, value)):
            return {"__snap__": "tuple", "items": list(value)}
        if isinstance(value, _PRIMITIVES):
            return value
        if isinstance(value, tuple):
            return {"__snap__": "tuple",
                    "items": [self.encode(v, where) for v in value]}
        if isinstance(value, list):
            return {"__snap__": "list",
                    "items": [self.encode(v, where) for v in value]}
        if isinstance(value, deque):
            return {"__snap__": "deque", "maxlen": value.maxlen,
                    "items": [self.encode(v, where) for v in value]}
        if isinstance(value, (set, frozenset)):
            kind = "frozenset" if isinstance(value, frozenset) else "set"
            items = sorted(value, key=repr)
            return {"__snap__": kind,
                    "items": [self.encode(v, where) for v in items]}
        if isinstance(value, dict):
            return {"__snap__": "dict",
                    "items": [[self.encode(k, where), self.encode(v, where)]
                              for k, v in value.items()]}
        if isinstance(value, random.Random):
            # Registered like an object so aliasing survives: a stream
            # held by both the RngRegistry and a Link must restore to
            # ONE Random, or their futures diverge.
            index = len(self.nodes)
            self.memo[id(value)] = index
            self.nodes.append({
                "cls": "random.Random",
                "fields": {},
                "rng": self.encode(value.getstate(), where),
            })
            return {"__snap__": "ref", "id": index}
        if isinstance(value, types.MethodType):
            return self._encode_method(value, where)
        if isinstance(value, functools.partial):
            return {"__snap__": "partial",
                    "func": self.encode(value.func, where),
                    "args": [self.encode(v, where) for v in value.args],
                    "keywords": [[k, self.encode(v, where)]
                                 for k, v in sorted(value.keywords.items())]}
        if isinstance(value, types.FunctionType):
            return self._encode_function(value, where)
        fields = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls)
            else _declared_fields(cls)
        )
        if fields is None:
            raise SnapshotError(
                f"{where}: cannot snapshot {_qualname(cls)} -- the class "
                "declares no STATE_FIELDS and is not a dataclass"
            )
        plan = self.plans[cls] = _Plan(cls, fields)
        return self._encode_object(value, plan)

    def _encode_object(self, obj: Any, plan: _Plan) -> Any:
        index = len(self.nodes)
        self.memo[id(obj)] = index
        fields: Dict[str, Any] = {}
        self.nodes.append({"cls": plan.qual, "fields": fields})
        attrs = getattr(obj, "__dict__", ())
        if plan.undeclared_slots or not plan.declared.issuperset(attrs):
            filled = {s for s in plan.undeclared_slots if hasattr(obj, s)}
            extra = filled.union(attrs) - plan.declared
            if extra:
                raise SnapshotError(
                    f"{plan.qual} carries attribute(s) outside its snapshot "
                    f"contract: {', '.join(sorted(extra))} (declare them in "
                    "STATE_FIELDS)"
                )
        qual, slots = plan.qual, plan.slots
        for name in plan.fields:
            # Present on the instance, or declared and currently unset
            # (a slot never filled): the latter is skipped.
            if name in attrs or (name in slots and hasattr(obj, name)):
                value = getattr(obj, name)
                fields[name] = (
                    value if type(value) in _ATOMS
                    else self.encode(value, f"{qual}.{name}")
                )
        return {"__snap__": "ref", "id": index}

    def _encode_method(self, method: types.MethodType, where: str) -> Any:
        owner = method.__self__
        name = method.__func__.__name__
        if isinstance(owner, type) or getattr(type(owner), name, None) is None:
            raise SnapshotError(
                f"{where}: cannot rebind bound method {name!r} -- its owner "
                f"{type(owner).__name__} does not define it"
            )
        return {"__snap__": "method",
                "owner": self.encode(owner, where), "name": name}

    def _encode_function(self, func: types.FunctionType, where: str) -> Any:
        if func.__name__ == "<lambda>" or "<locals>" in func.__qualname__ or func.__closure__:
            raise SnapshotError(
                f"{where}: cannot snapshot {func.__qualname__!r} -- lambdas "
                "and closures are not rebindable; store a bound method of a "
                "snapshot-reachable object instead"
            )
        return {"__snap__": "function",
                "module": func.__module__, "qualname": func.__qualname__}


def capture(sim: Simulator, roots: Optional[Mapping[str, Any]] = None) -> Snapshot:
    """Deep-copy the world reachable from ``sim`` and ``roots``.

    ``roots`` names extra entry points (connections, sessions, result
    recorders) so :func:`restore` can hand them back by name; ``"sim"``
    is reserved for the simulator itself.  Only callable between
    ``run()`` calls -- a capture mid-callback would miss the Python
    stack.
    """
    if sim._running:
        raise SnapshotError("capture() is only valid between run() calls")
    if roots and "sim" in roots:
        raise SnapshotError("root name 'sim' is reserved for the simulator")
    walker = _Capture()
    encoded_roots = {"sim": walker.encode(sim, "roots[sim]")}
    for name, obj in (roots or {}).items():
        encoded_roots[name] = walker.encode(obj, f"roots[{name}]")
    return Snapshot(walker.nodes, encoded_roots)


# ----------------------------------------------------------------------
# Restore / fork
# ----------------------------------------------------------------------


def _resolve_class(qual: str) -> type:
    module_name, _, rest = qual.rpartition(".")
    probe = module_name
    attrs = [rest]
    while probe:
        try:
            module = importlib.import_module(probe)
        except ImportError:
            probe, _, head = probe.rpartition(".")
            attrs.insert(0, head)
            continue
        target: Any = module
        for attr in attrs:
            target = getattr(target, attr)
        if not isinstance(target, type):
            raise SnapshotError(f"{qual} is not a class")
        return target
    raise SnapshotError(f"cannot resolve class {qual!r}")


class _Restore:
    __slots__ = ("snapshot", "instances")

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        self.instances: List[Any] = []
        for node in snapshot.nodes:
            if node["cls"] == "random.Random":
                # Allocation only -- seeding would be wasted work, the
                # captured ``getstate`` tuple overwrites it in phase 2.
                self.instances.append(random.Random.__new__(random.Random))
            else:
                cls = _resolve_class(node["cls"])
                self.instances.append(cls.__new__(cls))
        for node, obj in zip(snapshot.nodes, self.instances):
            if node["cls"] == "random.Random":
                obj.setstate(self.decode(node["rng"]))
                continue
            frozen = dataclasses.is_dataclass(obj) and getattr(
                type(obj), "__dataclass_params__"
            ).frozen
            setter = object.__setattr__ if frozen else setattr
            for name, encoded in node["fields"].items():
                setter(obj, name, self.decode(encoded))

    def decode(self, encoded: Any) -> Any:
        if isinstance(encoded, _PRIMITIVES):
            return encoded
        tag = encoded["__snap__"]
        if tag == "ref":
            return self.instances[encoded["id"]]
        if tag == "tuple":
            return tuple(self.decode(v) for v in encoded["items"])
        if tag == "list":
            return [self.decode(v) for v in encoded["items"]]
        if tag == "deque":
            return deque(
                (self.decode(v) for v in encoded["items"]),
                maxlen=encoded["maxlen"],
            )
        if tag == "set":
            return {self.decode(v) for v in encoded["items"]}
        if tag == "frozenset":
            return frozenset(self.decode(v) for v in encoded["items"])
        if tag == "dict":
            return {self.decode(k): self.decode(v) for k, v in encoded["items"]}
        if tag == "method":
            return getattr(self.decode(encoded["owner"]), encoded["name"])
        if tag == "partial":
            return functools.partial(
                self.decode(encoded["func"]),
                *[self.decode(v) for v in encoded["args"]],
                **{k: self.decode(v) for k, v in encoded["keywords"]},
            )
        if tag == "function":
            module = importlib.import_module(encoded["module"])
            target: Any = module
            for attr in encoded["qualname"].split("."):
                target = getattr(target, attr)
            return target
        raise SnapshotError(f"unknown snapshot tag {tag!r}")  # pragma: no cover


def restore(snapshot: Snapshot) -> Dict[str, Any]:
    """Rebuild an independent world; returns the named roots.

    The result maps every root name passed to :func:`capture` (plus
    ``"sim"``) to its freshly built object.  Nothing is shared with the
    captured world: mutating one cannot perturb the other.
    """
    restorer = _Restore(snapshot)
    return {name: restorer.decode(encoded)
            for name, encoded in snapshot.roots.items()}


def fork(
    snapshot: Snapshot, override: Optional[Callable[[Dict[str, Any]], None]] = None
) -> Dict[str, Any]:
    """Restore a world and apply a counterfactual ``override`` to it.

    ``override`` receives the restored roots dict and mutates state in
    place -- e.g. forcing the opposite choice on an
    :class:`~repro.core.ecf.EcfScheduler` -- before the caller runs the
    forked future to completion.
    """
    world = restore(snapshot)
    if override is not None:
        override(world)
    return world
