"""Single-run experiment harnesses.

:func:`run_streaming` builds the full stack -- paths, MPTCP connection,
HTTP session, DASH player -- for one streaming session and returns every
metric any of the paper's streaming figures needs: average bit rate,
per-chunk throughput, fast-subflow traffic fraction, IW-reset counts,
out-of-order delays, last-packet gaps, mean RTTs, and optional CWND /
send-buffer / player traces.

The same harness covers fixed bandwidths (Figs 2, 9), the idle-reset
ablation (Fig 6), multi-subflow runs (Fig 15), random bandwidth processes
(Figs 16, 17), and in-the-wild path profiles (Fig 22) -- each is just a
different :class:`StreamingRunConfig`.  The spec is the only way in:
``run_streaming(spec)`` here, ``run_spec(spec)`` by kind, or a batch
through :class:`~repro.experiments.exec.ExperimentExecutor` /
:class:`~repro.service.CampaignRunner`.

:class:`StreamingRunConfig` serializes through :mod:`repro.sim.codec`.
:class:`StreamingRunResult` writes its own wire format
(:meth:`~StreamingRunResult.to_dict` / :meth:`~StreamingRunResult.from_dict`),
because its summary keys are renamed or derived rather than its field
list; it embeds the spec through the codec and carries the codec's
``schema_version``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Mapping, Optional, Tuple

from repro.core.spec import SchedulerSpec, build
from repro.experiments.spec import register_experiment
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.bandwidth import BandwidthSpec
from repro.net.path import Path
from repro.net.profiles import PathConfig, lte_config, make_path, wifi_config
from repro.sim.codec import SCHEMA_VERSION, Record, wrong_schema_version
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

# The DASH stack, the samplers and the trace recorder load where a
# session runs or a result is decoded: defining and registering the spec
# (what a sweep that only builds specs imports) needs none of them.
if TYPE_CHECKING:
    from repro.apps.dash.player import StreamingMetrics
    from repro.sim.trace import TraceRecorder


def _coerce_process(process: Optional[object]) -> Optional[object]:
    """Normalize a bandwidth process argument toward a serializable spec.

    :class:`~repro.net.bandwidth.BandwidthSpec` and ``None`` pass through;
    live process objects that know their spec (``to_spec``) are converted,
    which keeps the config picklable.  Duck-typed processes without a spec
    are kept live -- they still run serially, but the config refuses to
    serialize (the executor and cache need plain values).
    """
    if process is None or isinstance(process, BandwidthSpec):
        return process
    to_spec = getattr(process, "to_spec", None)
    if callable(to_spec):
        return to_spec()
    return process


@dataclass(frozen=True)
class StreamingRunConfig(Record):
    """Everything one streaming session depends on -- as a plain value.

    ``wifi_mbps``/``lte_mbps`` set fixed regulated bandwidths; a
    ``wifi_process``/``lte_process`` (a
    :class:`~repro.net.bandwidth.BandwidthSpec`, or a live process with
    ``to_spec()`` which is converted on construction) overrides them over
    time; ``path_configs`` replaces the testbed profiles entirely (used
    by the in-the-wild runs).

    The config is frozen and holds no simulator state, so it can cross a
    process-pool boundary and serve as a cache key
    (:func:`repro.experiments.spec.spec_hash`).  Use
    :func:`dataclasses.replace` to derive variants.
    """

    kind: ClassVar[str] = "streaming"

    scheduler: str = "minrtt"
    scheduler_params: Dict = field(default_factory=dict)
    wifi_mbps: float = 8.6
    lte_mbps: float = 8.6
    video_duration: float = 120.0
    chunk_duration: float = 5.0
    seed: int = 0
    congestion_control: str = "coupled"
    idle_reset_enabled: bool = True
    penalization_enabled: bool = True
    abr: str = "bba"
    max_buffer: float = 25.0
    subflows_per_interface: int = 1
    wifi_process: Optional[BandwidthSpec] = None
    lte_process: Optional[BandwidthSpec] = None
    path_configs: Optional[Tuple[PathConfig, ...]] = None
    record_traces: bool = False
    record_delays: bool = True
    sample_period: float = 0.1
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "wifi_process", _coerce_process(self.wifi_process))
        object.__setattr__(self, "lte_process", _coerce_process(self.lte_process))
        if self.path_configs is not None:
            object.__setattr__(self, "path_configs", tuple(self.path_configs))

    def effective_time_limit(self) -> float:
        """Simulation cap: generous but finite."""
        if self.time_limit is not None:
            return self.time_limit
        return 3.0 * self.video_duration + 120.0


#: Protocol-style alias: the frozen spec the ``streaming`` kind runs.
StreamingSpec = StreamingRunConfig


@dataclass
class StreamingRunResult:
    """Everything the streaming figures read out of one session."""

    config: StreamingRunConfig
    metrics: StreamingMetrics
    finished: bool
    fast_interface: str
    payload_by_interface: Dict[str, int]
    iw_resets_by_interface: Dict[str, int]
    idle_resets_by_interface: Dict[str, int]
    mean_rtt_by_interface: Dict[str, float]
    ooo_delays: List[float]
    last_packet_gaps: List[float]
    reinjections: int
    trace: Optional[TraceRecorder]
    #: Optional per-run perf record (``PerfRecord.to_dict()``), attached by
    #: the executor when ``REPRO_PERF=1``; absent from the wire format when
    #: None so cached v2 payloads stay valid.
    perf: Optional[Dict[str, Any]] = None

    @property
    def average_bitrate_bps(self) -> float:
        return self.metrics.average_bitrate_bps

    @property
    def average_chunk_throughput_bps(self) -> float:
        """Mean per-chunk download throughput (Figs 6, 16)."""
        rates = self.metrics.chunk_throughputs_bps()
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def fraction_fast(self) -> float:
        """Share of payload carried by the fast interface (Figs 7, 10)."""
        total = sum(self.payload_by_interface.values())
        if total == 0:
            return 0.0
        return self.payload_by_interface.get(self.fast_interface, 0) / total

    def to_dict(self) -> Dict[str, Any]:
        """Lossless, JSON-serializable form (cache/worker wire format).

        The flat summary keys of the original (v1) format are kept for
        plotting scripts; on top of them the dict carries
        ``schema_version``, the run's spec (``spec`` -- the config as
        plain data), the raw per-packet samples, and the recorded trace
        series (as data, not a live
        :class:`~repro.sim.trace.TraceRecorder`).  :meth:`from_dict`
        inverts it exactly.
        """
        config = self.config
        metrics = self.metrics
        data = {
            "schema_version": SCHEMA_VERSION,
            "kind": "streaming",
            "spec": config.to_dict(),
            "scheduler": config.scheduler,
            "wifi_mbps": config.wifi_mbps,
            "lte_mbps": config.lte_mbps,
            "video_duration": config.video_duration,
            "seed": config.seed,
            "finished": self.finished,
            "average_bitrate_bps": metrics.average_bitrate_bps,
            "steady_average_bitrate_bps": metrics.steady_average_bitrate_bps,
            "average_chunk_throughput_bps": self.average_chunk_throughput_bps,
            "steady_average_throughput_bps": metrics.steady_average_throughput_bps,
            "fraction_fast": self.fraction_fast,
            "fast_interface": self.fast_interface,
            "iw_resets": dict(self.iw_resets_by_interface),
            "idle_resets": dict(self.idle_resets_by_interface),
            "mean_rtt_s": dict(self.mean_rtt_by_interface),
            "rebuffer_time_s": metrics.rebuffer_time,
            "rebuffer_events": metrics.rebuffer_events,
            "reinjections": self.reinjections,
            "chunks": [
                {
                    "index": c.index,
                    "representation": c.representation.name,
                    "bitrate_bps": c.representation.bitrate_bps,
                    "requested_at": c.requested_at,
                    "completed_at": c.completed_at,
                    "size": c.size,
                    "throughput_bps": c.throughput_bps,
                }
                for c in metrics.chunks
            ],
            "payload_by_interface": dict(self.payload_by_interface),
            "ooo_delays": list(self.ooo_delays),
            "last_packet_gaps": list(self.last_packet_gaps),
            "startup_completed_at": metrics.startup_completed_at,
            "finished_at": metrics.finished_at,
            "trace": (
                None
                if self.trace is None
                else {name: [list(s) for s in self.trace.series(name)]
                      for name in self.trace.names()}
            ),
        }
        # Additive field: emitted only when a perf record was attached, so
        # payloads (and cached digests) without one are byte-identical to v2.
        if self.perf is not None:
            data["perf"] = dict(self.perf)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StreamingRunResult":
        """Rebuild a result from :meth:`to_dict` output.

        Only understands ``schema_version`` 2 (v1 summaries are lossy and
        cannot be rebuilt).
        """
        from repro.apps.dash.media import Representation
        from repro.apps.dash.player import ChunkRecord, StreamingMetrics
        from repro.sim.trace import TraceRecorder

        if data.get("schema_version") != SCHEMA_VERSION:
            raise wrong_schema_version("streaming", data)
        metrics = StreamingMetrics(
            chunks=[
                ChunkRecord(
                    index=c["index"],
                    representation=Representation(
                        c["representation"], c["bitrate_bps"]
                    ),
                    requested_at=c["requested_at"],
                    completed_at=c["completed_at"],
                    size=c["size"],
                )
                for c in data["chunks"]
            ],
            rebuffer_time=data["rebuffer_time_s"],
            rebuffer_events=data["rebuffer_events"],
            startup_completed_at=data["startup_completed_at"],
            finished_at=data["finished_at"],
        )
        trace = None
        if data["trace"] is not None:
            trace = TraceRecorder()
            for name, samples in data["trace"].items():
                trace.extend(name, [(t, v) for t, v in samples])
        return cls(
            config=StreamingRunConfig.from_dict(data["spec"]),
            metrics=metrics,
            finished=data["finished"],
            fast_interface=data["fast_interface"],
            payload_by_interface=dict(data["payload_by_interface"]),
            iw_resets_by_interface=dict(data["iw_resets"]),
            idle_resets_by_interface=dict(data["idle_resets"]),
            mean_rtt_by_interface=dict(data["mean_rtt_s"]),
            ooo_delays=list(data["ooo_delays"]),
            last_packet_gaps=list(data["last_packet_gaps"]),
            reinjections=data["reinjections"],
            trace=trace,
            perf=data.get("perf"),
        )


def _build_paths(sim: Simulator, config: StreamingRunConfig, rngs: RngRegistry) -> List[Path]:
    if config.path_configs is not None:
        configs = list(config.path_configs)
    else:
        n = config.subflows_per_interface
        if n < 1:
            raise ValueError("subflows_per_interface must be >= 1")
        # Fig 15: subflows over one interface evenly split its bandwidth.
        configs = [wifi_config(config.wifi_mbps / n) for _ in range(n)]
        configs += [lte_config(config.lte_mbps / n) for _ in range(n)]
    return [
        make_path(sim, pc, rngs.stream(f"loss.{index}.{pc.name}"))
        for index, pc in enumerate(configs)
    ]


def _fast_interface(config: StreamingRunConfig, paths: List[Path]) -> str:
    if config.path_configs is not None:
        # Wild runs: the faster interface is the higher-bandwidth one.
        return max(paths, key=lambda p: p.rate_bps).name
    # Ties go to WiFi, whose RTT is lower at equal regulation (Table 2).
    return "wifi" if config.wifi_mbps >= config.lte_mbps else "lte"


def run_streaming(config: StreamingRunConfig) -> StreamingRunResult:
    """Execute one full streaming session and collect its metrics."""
    from repro.apps.dash.abr import make_abr
    from repro.apps.dash.media import VideoManifest
    from repro.apps.dash.mpdash import MpDashPathManager, MpDashScheduler
    from repro.apps.dash.player import DashPlayer
    from repro.apps.http import HttpSession
    from repro.metrics.collectors import PeriodicSampler
    from repro.sim.trace import TraceRecorder

    sim = Simulator()
    rngs = RngRegistry(config.seed)
    paths = _build_paths(sim, config, rngs)

    for interface, process in (("wifi", config.wifi_process), ("lte", config.lte_process)):
        if process is None:
            continue
        # Specs are realized into a fresh live process per run; legacy
        # duck-typed processes attach directly.
        if isinstance(process, BandwidthSpec):
            process = build(process)
        for path in paths:
            if path.name == interface:
                process.attach(sim, path)

    conn_config = ConnectionConfig(
        congestion_control=config.congestion_control,
        idle_reset_enabled=config.idle_reset_enabled,
        penalization_enabled=config.penalization_enabled,
        record_delays=config.record_delays,
    )
    scheduler = build(SchedulerSpec.of(config.scheduler, **config.scheduler_params))
    conn = MptcpConnection(sim, paths, scheduler, config=conn_config, name="dash")
    session = HttpSession(sim, conn)
    manifest = VideoManifest(
        duration=config.video_duration, chunk_duration=config.chunk_duration
    )
    trace = TraceRecorder() if config.record_traces else None
    player = DashPlayer(
        sim,
        session,
        manifest,
        abr=make_abr(config.abr, manifest),
        max_buffer=config.max_buffer,
        trace=trace,
    )

    # MP-DASH is cross-layer: its path manager needs the player's chunk
    # requirements.
    if isinstance(scheduler, MpDashScheduler):
        MpDashPathManager(scheduler, conn).attach(player)

    # Fig 5: per-download gap between the last packets on each interface.
    last_packet_gaps: List[float] = []

    def _record_gap(_result) -> None:
        arrivals = conn.receiver.last_arrival_by_subflow
        if len(arrivals) >= 2:
            times = sorted(arrivals.values())
            last_packet_gaps.append(times[-1] - times[0])

    session.observers.append(_record_gap)

    obs_trace: Optional[TraceRecorder] = None
    # A flight window opens only through ``repro.obs.flight``: while that
    # is not loaded, none is open and the recorder stays unimported.
    flight = sys.modules.get("repro.obs.flight")
    if trace is None and flight is not None and flight.current() is not None:
        # Flight recorder on but traces off: sample CWND/send-buffer into
        # a bounded side recorder for the postmortem bundle only.  The
        # recorder adopts itself into the flight window at construction;
        # it is never attached to the result, so the wire format (and the
        # cached digests) are untouched.
        obs_trace = TraceRecorder(max_samples_per_series=flight.TRACE_TAIL)
    for target in (trace, obs_trace):
        if target is None:
            continue
        sampler = PeriodicSampler(sim, target, period=config.sample_period)
        for sf in conn.subflows:
            label = f"{sf.path.name}{sf.sf_id}"
            sampler.add(f"cwnd.{label}", lambda sf=sf: sf.cwnd)
            sampler.add(f"sndbuf.{label}", lambda sf=sf: sf.outstanding_bytes)
        sampler.start(until=config.effective_time_limit())

    player.start()
    sim.run(until=config.effective_time_limit())

    payload: Dict[str, int] = {}
    iw_resets: Dict[str, int] = {}
    idle_resets: Dict[str, int] = {}
    rtt_sums: Dict[str, List[float]] = {}
    for sf in conn.subflows:
        name = sf.path.name
        payload[name] = payload.get(name, 0) + sf.stats.payload_bytes_sent
        iw_resets[name] = iw_resets.get(name, 0) + sf.stats.iw_resets
        idle_resets[name] = idle_resets.get(name, 0) + sf.stats.idle_resets
        if sf.rtt.samples:
            rtt_sums.setdefault(name, []).append(sf.rtt.mean_rtt)
    mean_rtt = {name: sum(vals) / len(vals) for name, vals in rtt_sums.items()}

    return StreamingRunResult(
        config=config,
        metrics=player.metrics,
        finished=player.finished,
        fast_interface=_fast_interface(config, paths),
        payload_by_interface=payload,
        iw_resets_by_interface=iw_resets,
        idle_resets_by_interface=idle_resets,
        mean_rtt_by_interface=mean_rtt,
        ooo_delays=conn.receiver.ooo_delays,
        last_packet_gaps=last_packet_gaps,
        reinjections=conn.reinjections,
        trace=trace,
    )


register_experiment(
    "streaming",
    StreamingRunConfig.from_dict,
    run_streaming,
    StreamingRunResult.from_dict,
)
