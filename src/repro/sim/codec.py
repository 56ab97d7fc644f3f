"""The wire codec: one module decides how every spec, result, kind-spec
and event record becomes JSON-ready data, and back.

The campaign store, the result cache, the pool wire and the golden
digests all address a run by its spec's wire form.  A class opts in by
inheriting :class:`Record`, :class:`Tagged` or :class:`Result`, whose
``to_dict`` *is* :func:`encode` and whose ``from_dict`` *is*
:func:`decode`; a dataclass nested in a field needs no base.  The rules:

* a dataclass encodes as a dict of its fields, in field order, and
  decodes back to its class; ``None`` passes through both ways;
* a tuple becomes a list; a field annotated ``Tuple[...]`` decodes back
  to a tuple, ``List[...]`` to a list, ``Dict`` to a dict (containers
  are copied, never shared);
* a kind-spec (:class:`KindSpec`) becomes ``{"kind", "params": {...}}``
  and decodes through ``of``; a kind-spec field holding an object that
  is not such a spec (a live bandwidth process, say) is a
  :class:`TypeError`;
* a :class:`Tagged` record leads with ``"kind"``, its class's tag;
* a :class:`Result` leads with ``"schema_version"`` and ``"kind"``, omits
  ``perf`` while it is None, and refuses to decode another
  ``schema_version`` (:class:`ValueError`);
* decoding, a missing key takes the field's default and a key that is
  neither field nor header is a :class:`TypeError`;
* anything else is an atom and passes as is.

Field types are read from the annotations once per class, into a plan of
the fields that need work (as :mod:`repro.sim.snapshot` plans its walk):
an atom field costs no Python call.  This module imports nothing from
the package, so every layer may use it.

>>> from dataclasses import dataclass
>>> @dataclass(frozen=True)
... class Cell(Record):
...     rates: Tuple[float, ...]
...     label: Optional[str] = None
>>> Cell((0.3, 8.6)).to_dict()
{'rates': [0.3, 8.6], 'label': None}
>>> Cell.from_dict({"rates": [0.3, 8.6]})
Cell(rates=(0.3, 8.6), label=None)
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple, Type, TypeVar, Union

#: Version of the spec/result wire format.  Bump when a serialized field
#: changes meaning; the cache treats entries from other versions as misses.
SCHEMA_VERSION = 2

T = TypeVar("T")
K = TypeVar("K", bound="KindSpec")
_Rule = Optional[Tuple[Callable[[Any], Any], Callable[[Any], Any]]]  # None: an atom


def canonical_json(data: Any) -> str:
    """Deterministic JSON used for hashing and byte-comparable storage."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def wrong_schema_version(kind: str, data: Mapping[str, Any]) -> ValueError:
    """The error every result decode raises for a foreign ``schema_version``."""
    return ValueError(
        f"cannot rebuild a {kind} result from schema_version "
        f"{data.get('schema_version')!r} (expected {SCHEMA_VERSION})"
    )


class _Plan:
    """What encoding and decoding one class takes, derived once."""

    __slots__ = ("names", "header", "encoders", "decoders", "result", "kind", "flat")

    def __init__(self, cls: Any) -> None:
        hints = typing.get_type_hints(cls)
        self.names = tuple(f.name for f in dataclasses.fields(cls))
        rules = [(name, _rule(hints[name])) for name in self.names]
        self.encoders = tuple((name, rule[0]) for name, rule in rules if rule)
        self.decoders = tuple((name, rule[1]) for name, rule in rules if rule)
        self.kind: Optional[str] = getattr(cls, "kind", None)
        self.result = issubclass(cls, Result)
        self.header: Dict[str, Any] = {}
        if issubclass(cls, Tagged):
            self.header = {"kind": self.kind}
        if self.result:
            self.header = {"schema_version": SCHEMA_VERSION, "kind": self.kind}
        # Every field an atom, no header, and an instance dict that holds
        # exactly the fields (frozen, no slots): a copy of it is the wire.
        self.flat = not (self.encoders or self.header) and (
            cls.__dataclass_params__.frozen and "__slots__" not in vars(cls)
        )


_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        if not dataclasses.is_dataclass(cls) or issubclass(cls, KindSpec):
            raise TypeError(f"{cls.__name__} has no field-list wire form")
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def encode(obj: Any) -> Dict[str, Any]:
    """Wire form of a dataclass instance."""
    plan = _PLANS.get(type(obj)) or _plan(type(obj))
    out = dict(plan.header)
    for name in plan.names:
        out[name] = getattr(obj, name)
    for name, convert in plan.encoders:
        if out[name] is not None:
            out[name] = convert(out[name])
    if plan.result and out.get("perf", 0) is None:
        del out["perf"]
    return out


def decode(cls: Type[T], data: Mapping[str, Any]) -> T:
    """Rebuild a ``cls`` instance from :func:`encode` output."""
    plan = _PLANS.get(cls) or _plan(cls)
    if plan.result and data.get("schema_version") != SCHEMA_VERSION:
        raise wrong_schema_version(str(plan.kind), data)
    kwargs = dict(data)
    for key in plan.header:
        kwargs.pop(key, None)
    for name, convert in plan.decoders:
        if kwargs.get(name) is not None:
            kwargs[name] = convert(kwargs[name])
    return cls(**kwargs)


def decode_tagged(family: str, types: Mapping[str, type], data: Mapping[str, Any]) -> Any:
    """Decode a :class:`Tagged` record of a family by its ``"kind"``."""
    kind = data.get("kind")
    cls = types.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown {family} kind {kind!r}; known: {sorted(types)}")
    return decode(cls, data)


class Record:
    """A dataclass whose wire form is its field list."""

    __slots__ = ()

    to_dict = encode
    from_dict = classmethod(decode)


class Tagged(Record):
    """A record led by ``"kind"``; a family decodes via :func:`decode_tagged`."""

    __slots__ = ()

    kind: ClassVar[str]


class Result(Record):
    """A run's outcome, led by ``schema_version`` and ``kind``; ``perf``
    (the record the executor attaches) is absent while None."""

    __slots__ = ()

    kind: ClassVar[str]


def _canonical(value: Any) -> Any:
    """Lists become tuples, recursively, so a kind-spec rebuilt from JSON
    equals the original."""
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


@dataclasses.dataclass(frozen=True)
class KindSpec:
    """A named, serializable description of a registry-built object: the
    one definition behind :class:`~repro.core.spec.SchedulerSpec`,
    :class:`~repro.core.spec.CcSpec` and
    :class:`~repro.net.bandwidth.BandwidthSpec`.

    ``params`` is a sorted tuple of ``(key, value)`` pairs with nested
    sequences tupled, so two specs describing the same object are equal
    whatever the construction order, and after a JSON round trip.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls: Type[K], kind: str, **params: Any) -> K:
        """Build a spec from keyword parameters."""
        return cls(kind, tuple(sorted((k, _canonical(v)) for k, v in params.items())))

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.param_dict()}

    @classmethod
    def from_dict(cls: Type[K], data: Mapping[str, Any]) -> K:
        return cls.of(data["kind"], **data.get("params", {}))


def _spec_field(cls: Type[KindSpec], value: Any) -> Dict[str, Any]:
    if not isinstance(value, cls):
        raise TypeError(
            f"{type(value).__name__} is not serializable; a {cls.__name__} field "
            f"needs a {cls.__name__} (or an object whose to_spec() returns one) "
            f"to run through the executor or cache"
        )
    return value.to_dict()


def _rule(tp: Any) -> _Rule:
    """The (encode, decode) pair a field annotation asks for."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is Union:
        present = [arg for arg in args if arg is not type(None)]
        return _rule(present[0]) if len(present) == 1 else None
    if origin is dict:
        return dict, dict
    if origin in (tuple, list):
        # Tuple[X, ...] and List[X] by their item; a fixed tuple holds atoms.
        item = args[0] if args and (origin is list or args[-1] is Ellipsis) else Any
        return _sequence(origin, item)
    if isinstance(tp, type) and issubclass(tp, KindSpec):
        return functools.partial(_spec_field, tp), tp.from_dict
    if dataclasses.is_dataclass(tp):
        return encode, functools.partial(decode, tp)
    return None


def _sequence(container: type, item: Any) -> _Rule:
    rule = _rule(item)
    if rule is None:
        return list, container
    if rule[0] is encode and _plan(item).flat:
        # No Python call per item: C-level copies out, the class itself in.
        return (
            lambda seq: list(map(dict, map(vars, seq))),
            lambda seq: container([item(**x) for x in seq]),
        )
    encode_item, decode_item = rule
    return lambda seq: list(map(encode_item, seq)), lambda seq: container(map(decode_item, seq))
