"""Checkpoint/fork round-trips for :mod:`repro.sim.snapshot`.

The coverage suite is auto-generated from the classes that declare
``STATE_FIELDS`` (``tests.conftest.declaring_classes`` finds them by
importing the simulation packages): each must show up (itself or via a
subclass) in at least one of the fixture worlds' captures, so adding
snapshot state to a class without a round-trip fixture here fails a
parametrized case by name.
"""

import dataclasses
import enum
import functools
import random
import types
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.apps.bulk import BulkDownloadSpec, build_world, finish
from repro.apps.http import HttpSession
from repro.core.ecf import EcfScheduler
from repro.core.minrtt import MinRttScheduler
from repro.core.registry import SCHEDULER_NAMES
from repro.core.spec import SchedulerSpec, build
from repro.experiments.spec import canonical_json
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.profiles import lte_config, wifi_config
from repro.net.topology import LinkSpec, chain_path
from repro.sim import snapshot as snapmod
from repro.sim.engine import Simulator
from repro.sim.snapshot import Snapshot, SnapshotError, capture, fork, restore
from repro.sim.trace import TraceRecorder
from repro.tcp.cc import CONTROLLER_NAMES
from tests.conftest import STATE_PACKAGES, declaring_classes, python_calls

#: Every class in the simulation packages with its own STATE_FIELDS.
DECLARING = list(declaring_classes())


class Ticker:
    """Module-level so restore can resolve it by qualified name."""

    STATE_FIELDS = ("hits",)

    def __init__(self):
        self.hits = 0

    def on_tick(self):
        self.hits += 1


def _spec(scheduler="ecf", size=96_000, seed=3, cc=None, loss=0.0):
    connection = None if cc is None else ConnectionConfig(congestion_control=cc)
    return BulkDownloadSpec(
        scheduler=scheduler,
        path_configs=(wifi_config(1.0, loss_rate=loss),
                      lte_config(8.6, loss_rate=loss)),
        size=size,
        seed=seed,
        connection=connection,
    )


def _midrun_world(scheduler="ecf", cc=None, loss=0.0, events=100):
    """A bulk world paused at an event boundary mid-download."""
    world = build_world(_spec(scheduler=scheduler, cc=cc, loss=loss))
    world.sim.run(until=world.spec.timeout, max_events=events)
    return world


def _chain_world():
    """A multi-hop (CompositeForward) world, captured before any send."""
    sim = Simulator()
    path = chain_path(
        sim,
        "chain",
        [LinkSpec(rate_mbps=10.0, one_way_delay=0.01, name="access"),
         LinkSpec(rate_mbps=5.0, one_way_delay=0.02, name="core")],
    )
    scheduler = build(SchedulerSpec.of("minrtt"))
    conn = MptcpConnection(sim, [path], scheduler, name="chain-conn")
    session = HttpSession(sim, conn)
    return sim, {"conn": conn, "session": session}


WORLDS = ["bulk_ecf_midrun", "bulk_blest_cubic_midrun", "bulk_daps_midrun",
          "bulk_roundrobin_midrun", "bulk_mpdash_midrun", "chain_t0"]


@pytest.fixture(scope="module")
def worlds():
    """Name -> (sim, roots): the live fixture worlds, paused."""
    live = {}

    ecf = _midrun_world("ecf")
    trace = TraceRecorder(ecf.sim)
    trace.record("cwnd.test", 0.1, 10.0)
    trace.record("cwnd.test", 0.2, 12.0)
    roots = dict(ecf.roots())
    roots["trace"] = trace
    live["bulk_ecf_midrun"] = (ecf.sim, roots)

    # Loss pushes CUBIC out of slow start so lazy _CubicState exists.
    cubic = _midrun_world("blest", cc="cubic", loss=0.05, events=200)
    live["bulk_blest_cubic_midrun"] = (cubic.sim, cubic.roots())

    for scheduler in ("daps", "roundrobin", "mpdash"):
        world = _midrun_world(scheduler)
        live[f"bulk_{scheduler}_midrun"] = (world.sim, world.roots())

    live["chain_t0"] = _chain_world()
    assert sorted(live) == sorted(WORLDS)
    return live


@pytest.fixture(scope="module")
def world_snapshots(worlds):
    """Name -> (world snapshot) for the coverage and round-trip suites."""
    return {name: capture(sim, roots) for name, (sim, roots) in worlds.items()}


@pytest.fixture(scope="module")
def captured_classes(world_snapshots):
    classes = set()
    for snap in world_snapshots.values():
        for node in snap.nodes:
            if node["cls"] != "random.Random":
                classes.add(snapmod._resolve_class(node["cls"]))
    return classes


class TestModelCoverage:
    """Auto-generated: one case per STATE_FIELDS-declaring class."""

    @pytest.mark.parametrize("qualname", DECLARING)
    def test_declared_class_appears_in_a_fixture_world(
        self, captured_classes, qualname
    ):
        declared = snapmod._resolve_class(qualname)
        assert any(
            issubclass(cls, declared) for cls in captured_classes
        ), f"{qualname} declares STATE_FIELDS but no fixture world captures it"

    def test_discovery_reaches_every_state_package(self):
        # An import walk that silently found nothing would leave the
        # parametrized case above with no cases to fail.
        assert {name.split(".")[1] for name in DECLARING} == set(STATE_PACKAGES)


class TestRoundTrip:
    """capture -> restore -> capture must be a fixed point."""

    @pytest.mark.parametrize("name", WORLDS)
    def test_recapture_digest_is_identical(self, world_snapshots, name):
        snap = world_snapshots[name]
        world = restore(snap)
        sim = world.pop("sim")
        again = capture(sim, world)
        assert again.digest() == snap.digest()
        assert again == snap

    def test_restored_future_replays_identically(self):
        world = _midrun_world("ecf")
        snap = capture(world.sim, world.roots())
        original = world.run_to_completion()

        twin = restore(snap)
        twin["sim"].run(until=world.spec.timeout)
        replayed = finish(world.spec, twin["conn"], twin["recorder"])
        assert replayed.to_dict() == original.to_dict()

    @pytest.mark.parametrize("cc", CONTROLLER_NAMES)
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_every_scheduler_and_controller_replays_identically(self, scheduler, cc):
        """A checkpoint must carry every field a scheduler, a controller
        or the RTT estimator keeps (its memoised sigma and RTO included)."""
        world = _midrun_world(scheduler, cc=cc)
        snap = capture(world.sim, world.roots())
        original = world.run_to_completion()

        twin = restore(snap)
        twin["sim"].run(until=world.spec.timeout)
        replayed = finish(world.spec, twin["conn"], twin["recorder"])
        assert canonical_json(replayed.to_dict()) == canonical_json(original.to_dict())

    def test_restored_world_is_independent(self):
        world = _midrun_world("ecf")
        snap = capture(world.sim, world.roots())
        before = world.conn.delivered_bytes
        twin = restore(snap)
        twin["sim"].run(until=world.spec.timeout)
        # Running the twin to completion must not advance the original.
        assert world.conn.delivered_bytes == before
        assert world.sim.now < twin["sim"].now

    def test_shared_rng_stream_stays_aliased(self):
        world = _midrun_world("ecf")
        snap = capture(world.sim, world.roots())
        twin = restore(snap)
        streams = twin["rngs"]._streams
        links = {
            sf.path.forward.name: sf.path.forward.rng
            for sf in twin["conn"].subflows
        }
        # Each restored Link.rng must be the very object the restored
        # registry holds -- two copies would diverge after one draw.
        aliased = [
            rng is link_rng
            for rng in streams.values()
            for link_rng in links.values()
            if rng is link_rng
        ]
        assert aliased, "no Link.rng aliases a registry stream after restore"


class TestTimerRebinding:
    """Live timers rebind their callbacks to the *restored* owners."""

    def test_pending_timer_fires_on_restored_instance(self):
        sim = Simulator()
        ticker = Ticker()
        sim.schedule(1.0, ticker.on_tick)
        snap = capture(sim, {"ticker": ticker})

        world = restore(snap)
        world["sim"].run()
        assert world["ticker"].hits == 1
        assert ticker.hits == 0  # the original never ticked

    def test_cancelled_timer_stays_cancelled(self):
        sim = Simulator()
        ticker = Ticker()
        timer = sim.schedule(1.0, ticker.on_tick)
        sim.schedule(2.0, ticker.on_tick)
        timer.cancel()
        world = restore(capture(sim, {"ticker": ticker}))
        world["sim"].run()
        assert world["ticker"].hits == 1

    def test_receiver_on_deliver_rebinds_to_restored_owner(self):
        world = _midrun_world("ecf")
        snap = capture(world.sim, world.roots())
        twin = restore(snap)
        bound = twin["conn"].receiver.on_deliver
        # run_bulk wires on_deliver to the HttpSession's _on_bytes; the
        # restored binding must target the restored session, not the
        # captured one.
        assert bound.__self__ is twin["session"]
        assert bound.__self__ is not world.session


class TestRefusals:
    """The walk refuses anything outside the snapshot contract."""

    def test_capture_mid_run_is_refused(self):
        sim = Simulator()
        failures = []

        def probe():
            try:
                capture(sim)
            except SnapshotError as exc:
                failures.append(str(exc))

        sim.schedule(1.0, probe)
        sim.run()
        assert failures and "between run() calls" in failures[0]

    def test_reserved_root_name(self):
        sim = Simulator()
        with pytest.raises(SnapshotError, match="reserved"):
            capture(sim, {"sim": sim})

    def test_undeclared_class_is_refused(self):
        class Opaque:
            pass

        sim = Simulator()
        with pytest.raises(SnapshotError, match="declares no STATE_FIELDS"):
            capture(sim, {"thing": Opaque()})

    def test_attr_outside_contract_is_refused(self):
        class Partial:
            STATE_FIELDS = ("a",)

            def __init__(self):
                self.a = 1
                self.b = 2  # never declared

        sim = Simulator()
        with pytest.raises(SnapshotError, match="outside its snapshot contract"):
            capture(sim, {"thing": Partial()})

    def test_sanitizer_keeps_its_state_off_the_captured_world(self):
        """With the sanitizer armed (as under REPRO_SANITIZE=1) its DSN
        floor lives in the subscriber, so a mid-run world still captures
        -- nothing extra sits on the receiver -- and both the original
        and the restored future pass the DSN-monotonicity check."""
        was_on = sanitize.enabled()
        sanitize.enable()
        try:
            world = _midrun_world("ecf")
            assert world.conn.receiver.expected_dsn > 0  # a floor was recorded
            snap = capture(world.sim, world.roots())
            original = world.run_to_completion()
            twin = restore(snap)
            twin["sim"].run(until=world.spec.timeout)
            replayed = finish(world.spec, twin["conn"], twin["recorder"])
        finally:
            if not was_on:
                sanitize.disable()
        assert replayed.to_dict() == original.to_dict()

    def test_lambda_in_state_is_refused(self):
        class Holder:
            STATE_FIELDS = ("cb",)

            def __init__(self):
                self.cb = lambda: None

        sim = Simulator()
        with pytest.raises(SnapshotError, match="lambdas"):
            capture(sim, {"thing": Holder()})

    def test_closure_in_state_is_refused(self):
        def make(x):
            def closure():
                return x

            return closure

        class Holder:
            STATE_FIELDS = ("cb",)

            def __init__(self):
                self.cb = make(3)

        sim = Simulator()
        with pytest.raises(SnapshotError, match="closures are not rebindable"):
            capture(sim, {"thing": Holder()})

    @pytest.mark.parametrize(
        "make, type_name",
        [
            (lambda tmp: open(tmp / "link.log", "w"), "_io.TextIOWrapper"),
            (lambda tmp: (n for n in range(3)), "builtins.generator"),
        ],
        ids=["open-file", "live-generator"],
    )
    def test_handle_or_generator_in_a_declared_field_is_refused(
        self, tmp_path, make, type_name
    ):
        world = _midrun_world("ecf")
        link = world.conn.subflows[0].path.forward
        link.on_drop = value = make(tmp_path)
        try:
            with pytest.raises(
                SnapshotError,
                match=rf"^repro\.net\.link\.Link\.on_drop: cannot snapshot {type_name} ",
            ):
                capture(world.sim, world.roots())
        finally:
            value.close()

    def test_subclass_field_outside_the_inherited_contract_is_refused(self):
        class Gated(MinRttScheduler):
            """Declares nothing itself: held to the contract it inherits."""

            def __init__(self):
                super().__init__()
                self.open = True

        world = _midrun_world("minrtt")
        world.conn.scheduler = gated = Gated()
        gated.attach(world.conn)
        with pytest.raises(
            SnapshotError,
            match=r"Gated carries attribute\(s\) outside its snapshot contract: open ",
        ):
            capture(world.sim, world.roots())

    def test_foreign_bound_method_in_state_fires_on_the_restored_owner(self):
        """Not a refusal: a declared field may hold a bound method of
        *another* snapshotted object (here ``_PendingGet.callback`` is
        the recorder's ``on_complete``); it is encoded as (owner, name),
        never copied raw."""
        world = _midrun_world("ecf")
        assert world.session._pending[0].callback.__self__ is world.recorder
        twin = restore(capture(world.sim, world.roots()))
        assert twin["session"]._pending[0].callback.__self__ is twin["recorder"]
        twin["sim"].run(until=world.spec.timeout)
        assert twin["recorder"].result is not None
        assert world.recorder.result is None  # the captured owner never heard of it


class TestFork:
    def test_fork_override_sees_the_roots(self):
        world = _midrun_world("ecf")
        snap = capture(world.sim, world.roots())
        seen = {}

        def override(roots):
            seen.update(roots)
            roots["conn"].scheduler.force_decision(0, "wait")

        forked = fork(snap, override)
        assert seen["sim"] is forked["sim"]
        assert forked["conn"].scheduler.forced_decisions == {0: "wait"}

    def test_fork_without_override_is_plain_restore(self):
        sim = Simulator()
        world = fork(capture(sim))
        assert isinstance(world["sim"], Simulator)
        assert world["sim"] is not sim


class TestSlotsSatellite:
    """Small state classes carry no per-instance ``__dict__``: the
    hot-path ones are allocated per packet, segment and timer."""

    #: Classes with more effective fields than this are config-heavy
    #: aggregates (one per connection or link) where slots buy little.
    HOT_PATH_MAX_FIELDS = 10

    def test_hot_classes_have_no_instance_dict(self):
        hot = {
            name: cls
            for name, cls in declaring_classes().items()
            if len(_declared_fields(cls)) <= self.HOT_PATH_MAX_FIELDS
        }
        assert "repro.sim.engine.Timer" in hot
        for name, cls in hot.items():
            # Slot-restriction only holds if every class on the MRO is
            # slotted; one dictful base re-grows the per-instance dict.
            dictful = [
                base.__name__
                for base in cls.__mro__
                if base is not object and "__dict__" in vars(base)
            ]
            assert not dictful, f"{name} has an instance __dict__ via {dictful}"

    def test_scheduler_still_constructs_and_counts(self):
        scheduler = EcfScheduler()
        assert scheduler.decisions == 0 and scheduler.waits == 0
        with pytest.raises(AttributeError):
            scheduler.surprise_attribute = 1  # slots reject strays


# ----------------------------------------------------------------------
# The oracle: the walker as it was before the per-class plan, verbatim.
# One class-fact derivation per *reference*, no fast path -- slow and
# plainly correct, which is what a reference is for.
# ----------------------------------------------------------------------

_PRIMITIVES = (type(None), bool, int, float, str, bytes)


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


def _instance_attrs(obj: Any) -> Set[str]:
    """Every attribute actually present on the instance."""
    names: Set[str] = set()
    if hasattr(obj, "__dict__"):
        names.update(obj.__dict__)
    for klass in type(obj).__mro__:
        for slot in klass.__dict__.get("__slots__", ()):
            if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                names.add(slot)
    return names


class _ReferenceCapture:
    def __init__(self) -> None:
        self.nodes: List[Dict[str, Any]] = []
        self.memo: Dict[int, int] = {}

    def encode(self, value: Any, where: str) -> Any:
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
            oid = id(value)
            index = self.memo.get(oid)
            if index is None:
                index = len(self.nodes)
                self.memo[oid] = index
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
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return self._encode_object(
                value, [f.name for f in dataclasses.fields(value)], where
            )
        declared = _declared_fields(type(value))
        if declared is not None:
            return self._encode_object(value, list(declared), where)
        raise SnapshotError(
            f"{where}: cannot snapshot {_qualname(type(value))} -- the class "
            "declares no STATE_FIELDS and is not a dataclass"
        )

    def _encode_object(self, obj: Any, fields: List[str], where: str) -> Any:
        oid = id(obj)
        index = self.memo.get(oid)
        if index is not None:
            return {"__snap__": "ref", "id": index}
        index = len(self.nodes)
        self.memo[oid] = index
        qual = _qualname(type(obj))
        node: Dict[str, Any] = {"cls": qual, "fields": {}}
        self.nodes.append(node)
        declared = set(fields)
        present = _instance_attrs(obj)
        extra = sorted(name for name in present if name not in declared)
        if extra:
            raise SnapshotError(
                f"{qual} carries attribute(s) outside its snapshot contract: "
                f"{', '.join(extra)} (declare them in STATE_FIELDS)"
            )
        for name in fields:
            if name not in present:
                continue  # declared, currently unset (slot never filled)
            node["fields"][name] = self.encode(
                getattr(obj, name), f"{qual}.{name}"
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


def _reference_capture(sim: Simulator, roots: Optional[Mapping[str, Any]] = None) -> Snapshot:
    if sim._running:
        raise SnapshotError("capture() is only valid between run() calls")
    if roots and "sim" in roots:
        raise SnapshotError("root name 'sim' is reserved for the simulator")
    walker = _ReferenceCapture()
    encoded_roots = {"sim": walker.encode(sim, "roots[sim]")}
    for name, obj in (roots or {}).items():
        encoded_roots[name] = walker.encode(obj, f"roots[{name}]")
    return Snapshot(walker.nodes, encoded_roots)


# -- small object graphs for the property test --------------------------


class Shade(enum.IntEnum):
    DARK = 1
    LIGHT = 2


class Label(str):
    """A ``str`` subclass: a primitive, but not by exact type."""


def _noop(*args, **kwargs):
    """Module-level, so a ``partial`` over it is rebindable."""


class Cell:
    """Slotted; ``spare`` is declared and only sometimes filled."""

    __slots__ = ("value", "link", "spare")
    STATE_FIELDS = ("value", "link", "spare")

    def __init__(self, value, link=None):
        self.value = value
        self.link = link

    def poke(self, *args):
        """A bound-method target."""


@dataclasses.dataclass
class Pair:
    left: Any
    right: Any


class Bag:
    """Dict-based; holds one of everything the walk special-cases."""

    STATE_FIELDS = ("items", "rng", "window", "hook", "shade", "label", "pair", "later")

    def __init__(self, **state):
        self.__dict__.update(state)


_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False),
    st.text(max_size=3), st.binary(max_size=3),
    st.sampled_from(list(Shade)), st.builds(Label, st.text(max_size=3)),
)


@st.composite
def object_graphs(draw):
    """Roots over a few ``Cell``/``Bag``/``Pair`` objects that share
    references, one ``Random`` held by two owners, deques with and
    without ``maxlen``, partials, tuples of primitives and of objects."""
    shared_rng = random.Random(draw(st.integers(0, 99)))
    cells: List[Any] = []
    for _ in range(draw(st.integers(1, 5))):
        link = draw(st.sampled_from(cells)) if cells and draw(st.booleans()) else None
        cell = Cell(draw(_atoms), link)
        if draw(st.booleans()):
            cell.spare = draw(st.tuples(_atoms, _atoms))
        cells.append(cell)
    some_cell = st.sampled_from(cells)

    def bag():
        target = draw(some_cell)
        hook = draw(st.sampled_from([
            target.poke,
            functools.partial(target.poke, draw(_atoms)),
            functools.partial(_noop, draw(some_cell), key=draw(_atoms)),
            _noop,
        ]))
        state = {
            "items": draw(st.lists(st.one_of(_atoms, some_cell), max_size=4)),
            "rng": shared_rng,
            "window": deque(
                draw(st.lists(_atoms, max_size=4)),
                maxlen=draw(st.sampled_from([None, 4])),
            ),
            "hook": hook,
            "shade": draw(st.sampled_from(list(Shade))),
            "label": Label(draw(st.text(max_size=3))),
            "pair": Pair(draw(some_cell), draw(st.tuples(_atoms, some_cell))),
        }
        if draw(st.booleans()):
            state["later"] = {draw(st.integers(0, 3)): draw(some_cell)}
        return Bag(**state)

    return {"first": bag(), "second": bag(), "cells": cells}


class TestReferenceEquivalence:
    """``capture`` against the oracle: same ``Snapshot``, same digest."""

    @staticmethod
    def agree(sim, roots):
        snap, reference = capture(sim, roots), _reference_capture(sim, roots)
        assert snap == reference
        assert snap.digest() == reference.digest()
        return snap

    @pytest.mark.parametrize("name", WORLDS)
    def test_fixture_worlds_match_the_reference(self, worlds, world_snapshots, name):
        assert self.agree(*worlds[name]) == world_snapshots[name]

    @pytest.mark.parametrize("cc", CONTROLLER_NAMES)
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_every_scheduler_and_controller_matches_the_reference(self, scheduler, cc):
        world = _midrun_world(scheduler, cc=cc)
        self.agree(world.sim, world.roots())

    @given(object_graphs())
    @settings(max_examples=60, deadline=None)
    def test_generated_graphs_match_the_reference(self, roots):
        snap = self.agree(Simulator(), roots)
        # ...and the graph survives the trip: a capture of the restored
        # world is the snapshot it was restored from.
        world = restore(snap)
        sim = world.pop("sim")
        assert world["first"].rng is world["second"].rng
        assert capture(sim, world) == snap


class TestPlanCaching:
    """A plan holds class facts only; what an *instance* carries is
    looked at every time."""

    def test_attr_added_after_a_sibling_was_captured_is_refused(self):
        clean, grown = Ticker(), Ticker()
        sim = Simulator()
        capture(sim, {"a": clean, "b": grown})
        grown.sneaked = 1
        # Same walk: ``clean`` builds Ticker's plan, ``grown`` reuses it.
        with pytest.raises(SnapshotError) as refusal:
            capture(sim, {"a": clean, "b": grown})
        assert str(refusal.value) == (
            "tests.test_snapshot.Ticker carries attribute(s) outside its "
            "snapshot contract: sneaked (declare them in STATE_FIELDS)"
        )

    def test_filled_undeclared_slot_is_refused_per_instance(self):
        class Slotted:
            __slots__ = ("a", "scratch")
            STATE_FIELDS = ("a",)

            def __init__(self):
                self.a = 1

        clean, dirty = Slotted(), Slotted()
        sim = Simulator()
        assert capture(sim, {"a": clean, "b": dirty}) == _reference_capture(
            sim, {"a": clean, "b": dirty}
        )
        dirty.scratch = 2
        with pytest.raises(SnapshotError, match="contract: scratch \\(declare"):
            capture(sim, {"a": clean, "b": dirty})

    def test_declared_but_unset_slot_is_skipped(self):
        filled, unset = Cell(1), Cell(2)
        filled.spare = 3
        snap = capture(Simulator(), {"filled": filled, "unset": unset})
        by_value = {node["fields"]["value"]: node["fields"] for node in snap.nodes[1:]}
        assert by_value[1] == {"value": 1, "link": None, "spare": 3}
        assert by_value[2] == {"value": 2, "link": None}

    def test_subclass_fields_are_the_base_first_union(self):
        class Loud(Ticker):
            STATE_FIELDS = ("volume", "hits")

            def __init__(self):
                super().__init__()
                self.volume = 11

        snap = capture(Simulator(), {"base": Ticker(), "sub": Loud()})
        base, sub = snap.nodes[1], snap.nodes[2]
        assert list(base["fields"]) == ["hits"]
        assert list(sub["fields"]) == ["hits", "volume"]

    def test_same_named_local_classes_get_a_plan_each(self):
        def make(fields):
            class Local:
                STATE_FIELDS = fields

                def __init__(self):
                    for name in fields:
                        setattr(self, name, name.upper())

            return Local

        first, second = make(("a",)), make(("b", "c"))
        assert _qualname(first) == _qualname(second)
        sim, roots = Simulator(), {"first": first(), "second": second()}
        snap = capture(sim, roots)
        assert snap.nodes[1]["fields"] == {"a": "A"}
        assert snap.nodes[2]["fields"] == {"b": "B", "c": "C"}
        assert snap == _reference_capture(sim, roots)


class TestCaptureBudget:
    """Python ``call`` events per captured node, as in
    ``tests/test_hot_path_budget.py``: exact for an interpreter, so a
    per-reference class-fact derivation creeping back into the walk
    fails here on a box whose clock cannot show it.

    The world is ``fork_sweep``'s (1.6 MB, ECF, WiFi 4.2 / LTE 8.6) after
    1,100 events -- the instant 2,200 events reached while a link had a
    serialisation-end event per packet: 761 nodes, mostly
    ``Segment``/``Packet``.  Measured on 3.11: 9.1 calls per node (8.9 on
    the 833-node world of 2,200 events, which held a ``Timer`` per
    packet in flight; 28.8 with ``_declared_fields`` per reference and
    ``_instance_attrs`` per node).  ``restore`` reads 34.3 on the same
    snapshot -- recorded, not gated: that half waits for ``fork_sweep``
    to be re-sized (see docs/performance.md).
    """

    BUDGET = 12.0

    def test_calls_per_captured_node_within_budget(self):
        spec = BulkDownloadSpec(
            scheduler="ecf",
            path_configs=(wifi_config(4.2), lte_config(8.6)),
            size=1_600_000,
            seed=11,
        )
        world = build_world(spec)
        world.sim.run(until=spec.timeout, max_events=1100)
        roots = world.roots()
        nodes = len(capture(world.sim, roots).nodes)
        assert nodes > 500  # the budget is per node of a *large* world
        per_node = python_calls(lambda: capture(world.sim, roots)) / nodes
        assert per_node <= self.BUDGET, (
            f"{per_node:.1f} Python calls per captured node, budget {self.BUDGET}"
        )
