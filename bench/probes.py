"""Isolated-layer probes, instrumentation on-cost, and import time.

A probe is a bench-owned loop that calls ONE public function of ONE
layer, nothing else, so a change to that function shows undiluted.  Each
probe reports the median of :data:`PROBE_REPEATS` loops, ``gc.collect()``
first.  Loops are short (tens of milliseconds) because all of them run
inside one traced invocation under the driver's time cap.

Probe values do not depend on the workload; they depend on ``seed`` only
through the generated specs they hash or run.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

from repro.analysis import events as sim_events
from repro.analysis import sanitize
from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.exec import ResultCache
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import (
    SCHEMA_VERSION,
    run_spec,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)
from repro.experiments.twin import build_world
from repro.mptcp.connection import ConnectionConfig
from repro.mptcp.receiver import MptcpReceiver
from repro.net.link import Link
from repro.net.packet import MSS, Packet, segment_wire_size
from repro.net.profiles import lte_config, wifi_config
from repro.obs import flight
from repro.perf.counters import collecting
from repro.perf.profiler import profiling
from repro.service import CampaignStore
from repro.sim.engine import Simulator
from repro.sim.snapshot import capture, restore
from repro.tcp.rtt import RttEstimator

from workloads import campaign_specs

PROBE_REPEATS = 5


def _timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_of(fn: Callable[[], float]) -> float:
    """Median of ``PROBE_REPEATS`` calls of a loop that returns its own
    measurement."""
    values = []
    for _ in range(PROBE_REPEATS):
        gc.collect()
        values.append(fn())
    return statistics.median(values)


def _per_call_ns(fn: Callable[[], Any], calls: int) -> float:
    """Median nanoseconds per call of ``fn`` over loops of ``calls``."""

    def loop() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls * 1e9

    return _median_of(loop)


# ----------------------------------------------------------------------
# sim.engine / net.link / tcp.rtt / mptcp.receiver
# ----------------------------------------------------------------------

_N = 20_000


def _noop() -> None:
    return None


def _engine_schedule_run() -> float:
    sim = Simulator()
    t0 = time.perf_counter()
    for i in range(_N):
        sim.schedule(i * 1e-6, _noop)
    sim.run()
    return (time.perf_counter() - t0) / _N * 1e9


def _engine_cancel() -> float:
    sim = Simulator()
    timers = [sim.schedule(i * 1e-6, _noop) for i in range(_N)]
    t0 = time.perf_counter()
    for timer in timers:
        timer.cancel()
    return (time.perf_counter() - t0) / _N * 1e9


def _link_packet() -> float:
    sim = Simulator()
    link = Link(sim, rate_bps=1e12, delay=0.001, queue_bytes=10**9)
    size = segment_wire_size(MSS)
    packets = [Packet.data_segment(size, MSS, 0, i, i * MSS, 0.0, False) for i in range(_N)]
    delivered: List[Packet] = []
    t0 = time.perf_counter()
    for packet in packets:
        link.send(packet, delivered.append)
    sim.run()
    elapsed = time.perf_counter() - t0
    if len(delivered) != _N:
        raise RuntimeError(f"link probe delivered {len(delivered)} of {_N} packets")
    return elapsed / _N * 1e9


def _receiver_on_data(reordered: bool) -> Callable[[], float]:
    size = segment_wire_size(MSS)
    order = list(range(_N))
    if reordered:  # every pair swapped: one buffer + one drain per pair
        for i in range(0, _N - 1, 2):
            order[i], order[i + 1] = order[i + 1], order[i]
    packets = [Packet.data_segment(size, MSS, 0, i, i * MSS, 0.0, False) for i in order]

    def loop() -> float:
        receiver = MptcpReceiver(Simulator())
        on_data = receiver.on_data
        t0 = time.perf_counter()
        for packet in packets:
            on_data(packet)
        elapsed = time.perf_counter() - t0
        if receiver.delivered_bytes != _N * MSS:
            raise RuntimeError("receiver probe lost data")
        return elapsed / _N * 1e9

    return loop


# ----------------------------------------------------------------------
# core.scheduler / tcp.cc on a mid-transfer world
# ----------------------------------------------------------------------


def _paths(subflows: int) -> tuple:
    half = subflows // 2
    return tuple([wifi_config(4.2 / half)] * half + [lte_config(8.6 / half)] * half)


def _world_where(spec: BulkDownloadSpec, wanted: Callable[[Any], bool]) -> Dict[str, Any]:
    """Step a bulk world event by event until ``wanted(conn)`` holds at an
    event boundary, then hand back a ``snapshot.restore`` of it (a world
    nothing else references).  Falls back to the mid-transfer state."""
    world = build_world(spec)
    world.sim.run(until=spec.timeout, max_events=1_500)
    fallback = capture(world.sim, world.roots())
    for _ in range(20_000):
        if wanted(world.conn):
            return restore(capture(world.sim, world.roots()))
        if world.sim.run(until=spec.timeout, max_events=1) == 0:
            break
    return restore(fallback)


def _declined(conn: Any) -> bool:
    """Data is queued and a subflow has window space, yet nothing was
    sent: the scheduler chose to wait, so ``select`` evaluates in full."""
    return conn.unassigned_bytes > 0 and any(sf.can_send() for sf in conn.subflows)


def _app_limited(conn: Any) -> bool:
    """Everything is assigned and every window has space: ``select``
    ranks all subflows."""
    return conn.unassigned_bytes == 0 and all(sf.can_send() for sf in conn.subflows)


def _scheduler_select(scheduler: str, subflows: int, seed: int) -> float:
    spec = BulkDownloadSpec(
        scheduler=scheduler, path_configs=_paths(subflows), size=600_000, seed=seed
    )
    # ECF is probed where Algorithm 1 runs; minRTT never declines, so it
    # is probed where all of its candidates are available.
    world = _world_where(spec, _declined if scheduler == "ecf" else _app_limited)
    conn = world["conn"]
    select = conn.scheduler.select
    return _per_call_ns(lambda: select(conn), 5_000)


def _cc_on_ack(controller: str, seed: int) -> float:
    spec = BulkDownloadSpec(
        scheduler="minrtt",
        path_configs=_paths(2),
        size=600_000,
        seed=seed,
        connection=ConnectionConfig(congestion_control=controller),
    )
    world = build_world(spec)
    world.sim.run(until=spec.timeout, max_events=1_500)
    subflow = world.conn.subflows[0]
    on_ack = subflow.cc.on_ack
    return _per_call_ns(lambda: on_ack(subflow, 1), 5_000)


# ----------------------------------------------------------------------
# experiments.spec / experiments.cache / service.store
# ----------------------------------------------------------------------


def _spec_probes(specs: List[Any]) -> Dict[str, float]:
    out = {}
    for kind in ("streaming", "bulk_download", "web_browsing"):
        spec = next(s for s in specs if s.kind == kind)
        out[f"experiments.spec.hash_us.{kind}"] = _per_call_ns(lambda: spec_hash(spec), 300) / 1e3
    streaming = specs[0]
    out["experiments.spec.roundtrip_us"] = (
        _per_call_ns(lambda: spec_from_dict(spec_to_dict(streaming)), 300) / 1e3
    )
    return out


def _cache_probes(spec: Any, workdir: str) -> Dict[str, float]:
    cache = ResultCache(tempfile.mkdtemp(prefix="probe-cache-", dir=workdir))
    key = spec_hash(spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": spec.kind,
        "spec": spec.to_dict(),
        "result": run_spec(spec).to_dict(),
    }
    put_ms = _per_call_ns(lambda: cache.put(key, payload), 20) / 1e6
    get_ms = _per_call_ns(lambda: cache.get(key), 20) / 1e6
    if cache.get(key) != payload:
        raise RuntimeError("cache probe read back a different entry")
    return {
        "experiments.cache.put_ms": put_ms,
        "experiments.cache.get_ms": get_ms,
        "experiments.cache.entry_bytes": os.path.getsize(cache.path_for(key)),
    }


def _store_probes(specs: List[Any], workdir: str) -> Dict[str, float]:
    root = tempfile.mkdtemp(prefix="probe-store-", dir=workdir)
    keys = [spec_hash(s) for s in specs][:40]  # one commit (~1 ms) per call
    jobs = len(specs)
    samples: Dict[str, List[float]] = {
        name: [] for name in ("add_jobs", "claim", "mark_done", "journal", "counts", "jobs_query")
    }
    entry = {"record": "job", "spec_hash": keys[0], "status": "cached", "wall_s": 0.0}
    for repeat in range(PROBE_REPEATS):
        gc.collect()
        with CampaignStore(os.path.join(root, f"probe-{repeat}.db")) as store:
            cid = store.ensure_campaign("probe", {"kind": "inline"})
            samples["add_jobs"].append(_timed(lambda: store.add_jobs(cid, specs)) / jobs)
            samples["claim"].append(
                _timed(lambda: [store.claim(cid, k) for k in keys]) / len(keys)
            )
            samples["mark_done"].append(
                _timed(lambda: [store.mark_done(cid, k, wall_s=0.0) for k in keys]) / len(keys)
            )
            samples["journal"].append(
                _timed(lambda: [store.record_journal(cid, entry) for _ in keys]) / len(keys)
            )
            samples["counts"].append(_timed(lambda: [store.counts(cid) for _ in range(50)]) / 50)
            samples["jobs_query"].append(_timed(lambda: [store.jobs(cid) for _ in range(5)]) / 5)
    median = {name: statistics.median(values) for name, values in samples.items()}
    return {
        "service.store.add_jobs_us_per_job": median["add_jobs"] * 1e6,
        "service.store.claim_us": median["claim"] * 1e6,
        "service.store.mark_done_us": median["mark_done"] * 1e6,
        "service.store.record_journal_us": median["journal"] * 1e6,
        "service.store.counts_us": median["counts"] * 1e6,
        "service.store.jobs_query_ms": median["jobs_query"] * 1e3,
    }


# ----------------------------------------------------------------------
# Instrumentation on-cost and import time
# ----------------------------------------------------------------------


@contextmanager
def _sanitizing() -> Iterator[None]:
    sanitize.enable()
    try:
        yield
    finally:
        sanitize.disable()


#: The public switch of each instrument, as a context manager.
_INSTRUMENTS = (
    ("perf.counters", collecting),
    ("perf.profiler", profiling),
    ("analysis.sanitize", _sanitizing),
    ("analysis.events", sim_events.recording),
    ("obs.flight", flight.flight),
)


def _on_cost(seed: int) -> Dict[str, float]:
    """Wall on / wall off over a fixed ~35k-event slice of the
    ``dash_hetero_ecf`` stream, off and on runs interleaved so drift hits
    both.  The switches are off in every timed run; this is the published
    price of looking."""
    spec = StreamingSpec(
        scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=20.0, seed=seed
    )

    def run() -> float:
        gc.collect()
        return _timed(lambda: run_spec(spec))

    run()  # warm-up
    off: List[float] = []
    on: Dict[str, List[float]] = {name: [] for name, _ in _INSTRUMENTS}
    for _ in range(3):
        off.append(run())
        for name, window in _INSTRUMENTS:
            with window():
                on[name].append(run())
    # Fastest over fastest: the runs are a quarter second, shorter than the
    # host's slow episodes, and those only ever add time.
    return {f"{name}.on_cost_ratio": min(walls) / min(off) for name, walls in on.items()}


def _import_s(src_dir: str) -> float:
    """A fresh interpreter importing ``repro.cli``, timed inside it."""
    code = (
        "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import repro.cli; print(time.perf_counter() - t0)"
    )

    def once() -> float:
        done = subprocess.run(
            [sys.executable, "-c", code, src_dir],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout.strip())

    return _median_of(once)


def run_probes(seed: int, workdir: str, src_dir: str) -> Dict[str, float]:
    """Every workload-independent per-layer metric."""
    specs = campaign_specs(seed)
    metrics: Dict[str, float] = {
        "sim.engine.probe.schedule_run_ns": _median_of(_engine_schedule_run),
        "sim.engine.probe.cancel_ns": _median_of(_engine_cancel),
        "net.link.probe.packet_ns": _median_of(_link_packet),
        "mptcp.receiver.probe.on_data_ns.inorder": _median_of(_receiver_on_data(False)),
        "mptcp.receiver.probe.on_data_ns.reordered": _median_of(_receiver_on_data(True)),
    }
    estimator = RttEstimator()
    metrics["tcp.rtt.probe.add_sample_ns"] = _per_call_ns(
        lambda: estimator.add_sample(0.05), 20_000
    )
    for scheduler in ("ecf", "minrtt"):
        for subflows in (2, 8):
            metrics[f"core.scheduler.probe.select_ns.{scheduler}_{subflows}sf"] = (
                _scheduler_select(scheduler, subflows, seed)
            )
    for controller in ("reno", "coupled", "olia", "cubic"):
        metrics[f"tcp.cc.probe.on_ack_ns.{controller}"] = _cc_on_ack(controller, seed)
    metrics.update(_spec_probes(specs))
    metrics.update(_cache_probes(specs[0], workdir))
    metrics.update(_store_probes(specs, workdir))
    metrics.update(_on_cost(seed))
    metrics["setup.import_s"] = _import_s(src_dir)
    return metrics
