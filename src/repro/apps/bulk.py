"""Simple Web downloads: the paper's wget workload (Section 5.4).

Each download is its own fresh MPTCP connection (wget connects, GETs one
object, closes), so connection establishment and the secondary subflow's
late join are part of the measured completion time -- this is why "MPTCP
rarely utilizes a secondary subflow for small transfers".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.apps.http import GetResult, HttpSession
from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.path import Path
from repro.net.profiles import PathConfig, make_path
from repro.sim.codec import Record, Result
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class BulkDownloadSpec(Record):
    """Frozen description of one wget-style download -- a plain value.

    Path profiles are embedded as :class:`~repro.net.profiles.PathConfig`
    (primary first) and the optional connection tunables as a
    :class:`~repro.mptcp.connection.ConnectionConfig`, both plain values,
    so the spec serializes (:mod:`repro.sim.codec`), pickles, and
    content-hashes for the executor and its result cache.
    """

    kind: ClassVar[str] = "bulk_download"

    scheduler: str
    path_configs: Tuple[PathConfig, ...]
    size: int
    seed: int = 0
    scheduler_params: Dict = field(default_factory=dict)
    connection: Optional[ConnectionConfig] = None
    timeout: float = 300.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "path_configs", tuple(self.path_configs))


@dataclass(frozen=True)
class BulkDownloadResult(Result):
    """Outcome of one wget-style single-object download."""

    kind = "bulk_download"

    scheduler: str
    size: int
    completion_time: float
    payload_by_path: Dict[str, int]
    ooo_delays_max: float
    reinjections: int
    #: Optional per-run perf record (``PerfRecord.to_dict()``), attached by
    #: the executor when ``REPRO_PERF=1``.
    perf: Optional[Dict[str, Any]] = None

    @property
    def throughput_bps(self) -> float:
        if self.completion_time <= 0:
            return 0.0
        return self.size * 8.0 / self.completion_time


class _CompletionRecorder:
    """Holds the finished GET.  A bound method of a ``STATE_FIELDS``
    object, not a closure, so :mod:`repro.sim.snapshot` can rebind it."""

    __slots__ = ("result",)

    STATE_FIELDS = ("result",)

    def __init__(self) -> None:
        self.result: Optional[GetResult] = None

    def on_complete(self, result: GetResult) -> None:
        self.result = result


@dataclass
class BulkWorld:
    """One built, not yet run, snapshottable bulk-download world."""

    spec: BulkDownloadSpec
    sim: Simulator
    conn: MptcpConnection
    session: HttpSession
    recorder: _CompletionRecorder
    rngs: RngRegistry

    def roots(self) -> Dict[str, Any]:
        """Named entry points for :func:`repro.sim.snapshot.capture`."""
        # The registry is only consulted at build time, but keeping it a
        # root means a restored world can mint *new* streams too.
        return {
            "conn": self.conn,
            "session": self.session,
            "recorder": self.recorder,
            "rngs": self.rngs,
        }

    def run_to_completion(self) -> BulkDownloadResult:
        self.sim.run(until=self.spec.timeout)
        return finish(self.spec, self.conn, self.recorder)


def build_world(spec: BulkDownloadSpec) -> BulkWorld:
    """Construct the world of one download: paths, connection, pending GET."""
    sim = Simulator()
    rngs = RngRegistry(spec.seed)
    paths = [
        make_path(sim, pc, rngs.stream(f"loss.{i}.{pc.name}"))
        for i, pc in enumerate(spec.path_configs)
    ]
    scheduler = build(SchedulerSpec.of(spec.scheduler, **spec.scheduler_params))
    conn = MptcpConnection(
        sim, paths, scheduler, config=spec.connection, name=f"wget-{spec.scheduler}"
    )
    session = HttpSession(sim, conn)
    recorder = _CompletionRecorder()
    session.get(spec.size, recorder.on_complete)
    return BulkWorld(spec=spec, sim=sim, conn=conn,
                     session=session, recorder=recorder, rngs=rngs)


def finish(
    spec: BulkDownloadSpec, conn: MptcpConnection, recorder: _CompletionRecorder
) -> BulkDownloadResult:
    """Assemble the result of a world that has been run (original or
    restored from a snapshot).

    Raises
    ------
    RuntimeError
        If the download did not finish within ``spec.timeout`` simulated
        seconds (indicative of a dead path or a scheduler deadlock).
    """
    if recorder.result is None:
        raise RuntimeError(
            f"download of {spec.size} bytes with {spec.scheduler!r} did not "
            f"complete within {spec.timeout} s (delivered "
            f"{conn.delivered_bytes} bytes)"
        )
    payload_by_path: Dict[str, int] = {}
    for sf in conn.subflows:
        payload_by_path[sf.path.name] = (
            payload_by_path.get(sf.path.name, 0) + sf.stats.payload_bytes_sent
        )
    return BulkDownloadResult(
        scheduler=spec.scheduler,
        size=spec.size,
        completion_time=recorder.result.completion_time,
        payload_by_path=payload_by_path,
        ooo_delays_max=max(conn.receiver.ooo_delays, default=0.0),
        reinjections=conn.reinjections,
    )


def run_bulk(spec: BulkDownloadSpec) -> BulkDownloadResult:
    """Download one object over a fresh MPTCP connection, per ``spec``.

    Raises :class:`RuntimeError` like :func:`finish` when the download
    does not complete within ``spec.timeout``.
    """
    return build_world(spec).run_to_completion()


def _register() -> None:
    from repro.experiments.spec import register_experiment

    register_experiment("bulk_download", BulkDownloadSpec.from_dict, run_bulk, BulkDownloadResult.from_dict)


_register()
