"""Checkpoint/fork round-trips for :mod:`repro.sim.snapshot`.

The coverage suite is auto-generated from the state model the analyzer
derives from the sources: every class that declares ``STATE_FIELDS``
must show up (itself or via a subclass) in at least one of the fixture
worlds' captures, so adding snapshot state to a class without a
round-trip fixture here fails a parametrized case by name.
"""

import pytest

from repro.analysis import sanitize
from repro.apps.bulk import BulkDownloadSpec, build_world, finish
from repro.apps.http import HttpSession
from repro.core.registry import SCHEDULER_NAMES
from repro.core.spec import SchedulerSpec, build
from repro.experiments.spec import canonical_json
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.profiles import lte_config, wifi_config
from repro.net.topology import LinkSpec, chain_path
from repro.sim import snapshot as snapmod
from repro.sim.engine import Simulator
from repro.sim.snapshot import SnapshotError, capture, fork, restore
from repro.sim.trace import TraceRecorder
from repro.tcp.cc import CONTROLLER_NAMES
from tests.conftest import package_state_model

#: Every class the static model records as declaring STATE_FIELDS.
DECLARING = sorted(
    name
    for name, info in package_state_model()["classes"].items()
    if info.get("declared_state") is not None
)


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


def _midrun_world(scheduler="ecf", cc=None, loss=0.0, events=200):
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


@pytest.fixture(scope="module")
def world_snapshots():
    """Name -> (world snapshot) for the coverage and round-trip suites."""
    snaps = {}

    ecf = _midrun_world("ecf")
    trace = TraceRecorder(ecf.sim)
    trace.record("cwnd.test", 0.1, 10.0)
    trace.record("cwnd.test", 0.2, 12.0)
    roots = dict(ecf.roots())
    roots["trace"] = trace
    snaps["bulk_ecf_midrun"] = capture(ecf.sim, roots)

    # Loss pushes CUBIC out of slow start so lazy _CubicState exists.
    cubic = _midrun_world("blest", cc="cubic", loss=0.05, events=400)
    snaps["bulk_blest_cubic_midrun"] = capture(cubic.sim, cubic.roots())

    daps = _midrun_world("daps")
    snaps["bulk_daps_midrun"] = capture(daps.sim, daps.roots())

    rr = _midrun_world("roundrobin")
    snaps["bulk_roundrobin_midrun"] = capture(rr.sim, rr.roots())

    mpdash = _midrun_world("mpdash")
    snaps["bulk_mpdash_midrun"] = capture(mpdash.sim, mpdash.roots())

    sim, roots = _chain_world()
    snaps["chain_t0"] = capture(sim, roots)

    return snaps


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


class TestRoundTrip:
    """capture -> restore -> capture must be a fixed point."""

    @pytest.mark.parametrize(
        "name",
        ["bulk_ecf_midrun", "bulk_blest_cubic_midrun", "bulk_daps_midrun",
         "bulk_roundrobin_midrun", "bulk_mpdash_midrun", "chain_t0"],
    )
    def test_recapture_digest_is_identical(self, world_snapshots, name):
        snap = world_snapshots[name]
        world = restore(snap)
        sim = world.pop("sim")
        again = capture(sim, world)
        assert again.digest() == snap.digest()

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
            world = _midrun_world("ecf", events=600)
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
