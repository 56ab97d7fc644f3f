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
* a field annotated ``array`` (an ``array("d")`` float series, such as a
  result's ``ooo_delays``) encodes as :func:`float_list` and decodes to
  an ``array("d")``; an ``array("d")`` it is handed (a cache entry's
  packed list) is kept as it is, a list or another array is converted;
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
import sys
import typing
from array import array
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

#: Version of the spec/result wire format.  Bump when a serialized field
#: changes meaning; the cache treats entries from other versions as misses.
SCHEMA_VERSION = 2

T = TypeVar("T")
K = TypeVar("K", bound="KindSpec")
_Rule = Optional[Tuple[Callable[[Any], Any], Callable[[Any], Any]]]  # None: an atom


#: Where the sign bit of an ``array("d")`` item sits, as a byte offset.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def float_list(values: array) -> List[float]:
    """The values of an array as a JSON-ready list of floats, exact for
    every float; an array of another typecode than ``"d"`` is read as
    doubles first, so it writes as the list of its values would.  Every
    ``+0.0`` in it is one shared float object, so a delay series (mostly
    in-order ``0.0`` samples) costs about 8 B per sample here instead of
    32; a series holding a ``-0.0`` (or any tiny negative: the check
    reads sign bytes only) takes the exact ``tolist``, because ``-0.0 or
    zero`` is ``+0.0``."""
    values = float_array(values)
    if b"\x80" in memoryview(values).cast("B")[_SIGN_BYTE::8].tobytes():
        return values.tolist()
    zero = 0.0
    return [value or zero for value in values]


def float_array(values: Any) -> array:
    """``values`` as an ``array("d")``: an ``array("d")`` (a cache entry's
    packed list, say) is kept as it is, anything else is converted."""
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", values)


def json_default(value: Any) -> Any:
    """The ``default`` hook of every JSON writer of wire data: an
    ``array("d")`` writes as the list of its floats, byte for byte."""
    if isinstance(value, array):
        return float_list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


#: The one encoder behind :func:`canonical_json`: ``json.dumps`` with
#: keyword options builds a fresh encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=json_default)


#: Items of a long top-level list that :func:`canonical_json` encodes
#: in one call.
_PIECE = 4096


def canonical_json(data: Any) -> str:
    """Deterministic JSON used for hashing and byte-comparable storage.

    The C encoder of CPython < 3.12 holds one ``str`` per list item until
    the end of a list (about 8x the text on a result's delay series), so
    a dict with ``str`` keys and a top-level list longer than
    :data:`_PIECE` items is written piecewise: each value on its own and
    such a list :data:`_PIECE` items at a time, all by the same encoder,
    joined once.  The text is the one-shot text byte for byte.
    """
    if type(data) is dict:
        for value in data.values():
            if type(value) is list and len(value) > _PIECE:
                if all(type(key) is str for key in data):
                    return _piecewise(data)
                break
    return _CANONICAL.encode(data)


def _piecewise(data: Dict[str, Any]) -> str:
    """:func:`canonical_json` of a dict with ``str`` keys, its long lists
    :data:`_PIECE` items at a time, each piece's brackets stripped."""
    encode = _CANONICAL.encode
    parts: List[str] = []
    for key in sorted(data):
        value = data[key]
        parts += (",", encode(key), ":")
        if type(value) is list and len(value) > _PIECE:
            parts.append("[")
            for start in range(0, len(value), _PIECE):
                parts += (encode(value[start : start + _PIECE])[1:-1], ",")
            parts[-1] = "]"
        else:
            parts.append(encode(value))
    parts[0] = "{"
    parts.append("}")
    return "".join(parts)


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
    """Lists (and a cache entry's packed arrays) become tuples,
    recursively, so a kind-spec rebuilt from JSON equals the original."""
    if isinstance(value, (list, tuple, array)):
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

    Each family (subclass) owns one kind -> factory table, the registry
    ``build`` and the linter read: :meth:`register` adds a kind,
    :meth:`kinds` lists them, :meth:`factory` resolves one.  Kind names
    fold case, so ``"ECF"`` resolves as ``"ecf"`` does.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    _factories: ClassVar[Dict[str, Callable[..., Any]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._factories = {}

    @classmethod
    def register(cls, kind: str, factory: Callable[..., Any]) -> None:
        """Make ``build(cls.of(kind, **params))`` call ``factory(**params)``,
        which must return a fresh object: schedulers and controllers carry
        per-connection state."""
        cls._factories[kind.lower()] = factory

    @classmethod
    def kinds(cls) -> FrozenSet[str]:
        """Every kind name the family resolves, aliases and registered
        extensions included."""
        return frozenset(cls._factories)

    @classmethod
    def factory(cls, kind: str) -> Callable[..., Any]:
        """The factory ``kind`` names; :class:`ValueError` for an unknown one."""
        try:
            return cls._factories[kind.lower()]
        except KeyError:
            raise ValueError(
                f"unknown {cls.__name__} kind {kind!r}; choose from {sorted(cls._factories)}"
            ) from None

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
    if origin is array:
        return float_list, float_array
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
