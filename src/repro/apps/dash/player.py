"""The DASH client player (Section 2.2).

Lifecycle per the paper:

* **initial buffering** -- fetch chunks back-to-back until the playback
  buffer reaches its prescribed maximum; playback starts earlier, once a
  "second sufficient threshold" is buffered;
* **steady state (ON-OFF)** -- after initial buffering, "the player pauses
  video download until the buffer level falls below the prescribed
  maximum": each 5-second chunk consumed opens room for the next request,
  producing OFF periods of roughly one chunk duration during which the
  MPTCP connection sits idle -- long enough to trip the idle CWND reset;
* **rebuffering** -- if the buffer empties, playback stops and the player
  refills to a resume threshold before playing again.

The player issues chunk GETs through an :class:`~repro.apps.http.HttpSession`
and feeds measured chunk throughput to its ABR algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.apps.dash.abr import AbrAlgorithm, AbrInputs, BufferBasedAbr
from repro.apps.dash.media import Representation, VideoManifest
from repro.apps.http import GetResult, HttpSession
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

#: Throughput EWMA gain for the ABR's estimate.
EWMA_GAIN = 0.3


@dataclass(frozen=True)
class ChunkRecord:
    """One downloaded chunk."""

    index: int
    representation: Representation
    requested_at: float
    completed_at: float
    size: int

    @property
    def download_time(self) -> float:
        return self.completed_at - self.requested_at

    @property
    def throughput_bps(self) -> float:
        elapsed = self.download_time
        return self.size * 8.0 / elapsed if elapsed > 0 else 0.0


@dataclass
class StreamingMetrics:
    """Session-level summary the experiments consume."""

    chunks: List[ChunkRecord] = field(default_factory=list)
    rebuffer_time: float = 0.0
    rebuffer_events: int = 0
    startup_completed_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def average_bitrate_bps(self) -> float:
        """Mean selected bitrate over downloaded chunks (the paper's
        'average measured bit rate')."""
        if not self.chunks:
            return 0.0
        return sum(c.representation.bitrate_bps for c in self.chunks) / len(self.chunks)

    def steady_chunks(self) -> List[ChunkRecord]:
        """Chunks requested after initial buffering completed.

        Scaled-down runs are startup-heavy; the paper's 20-minute runs are
        not, so steady-state averages are the comparable statistic.
        Falls back to all chunks if startup never completed.
        """
        t0 = self.startup_completed_at
        if t0 is None:
            return list(self.chunks)
        steady = [c for c in self.chunks if c.requested_at >= t0]
        return steady or list(self.chunks)

    @property
    def steady_average_bitrate_bps(self) -> float:
        """Mean selected bitrate over post-startup chunks."""
        chunks = self.steady_chunks()
        if not chunks:
            return 0.0
        return sum(c.representation.bitrate_bps for c in chunks) / len(chunks)

    @property
    def steady_average_throughput_bps(self) -> float:
        """Mean per-chunk download throughput over post-startup chunks."""
        chunks = self.steady_chunks()
        rates = [c.throughput_bps for c in chunks if c.throughput_bps > 0]
        return sum(rates) / len(rates) if rates else 0.0

    def chunk_throughputs_bps(self) -> List[float]:
        """Per-chunk download throughput (Fig 17)."""
        return [c.throughput_bps for c in self.chunks]


class DashPlayer:
    """Adaptive streaming client over one HTTP session.

    Parameters
    ----------
    sim: the simulator.
    session: HTTP session to fetch chunks through.
    manifest: the video.
    abr: bit-rate selection algorithm (default: buffer-based BBA).
    max_buffer: prescribed maximum playback buffer, seconds.
    start_threshold: buffered seconds at which playback begins.
    resume_threshold: buffered seconds ending a rebuffering phase.
    trace: optional recorder; series ``player.buffer``,
        ``player.download_bytes`` (Fig 1), and ``player.bitrate``.
    """

    def __init__(
        self,
        sim: Simulator,
        session: HttpSession,
        manifest: VideoManifest,
        abr: Optional[AbrAlgorithm] = None,
        max_buffer: float = 25.0,
        start_threshold: float = 10.0,
        resume_threshold: float = 10.0,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if start_threshold > max_buffer or resume_threshold > max_buffer:
            raise ValueError("thresholds cannot exceed max_buffer")
        self.sim = sim
        self._rank = sim.next_rank()
        self.session = session
        self.manifest = manifest
        self.abr = abr or BufferBasedAbr()
        self.max_buffer = max_buffer
        self.start_threshold = start_threshold
        self.resume_threshold = resume_threshold
        self.trace = trace

        self.metrics = StreamingMetrics()
        self.buffer_level = 0.0
        self.playing = False
        self.startup = True
        self.rebuffering = False
        self.finished = False
        self.downloaded_bytes = 0
        self._next_chunk = 0
        self._last_update = sim.now
        self._last_rep: Optional[Representation] = None
        self._throughput_ewma: Optional[float] = None
        self._recent_throughputs: List[float] = []
        self._started = False
        #: Optional cross-layer hook: called as
        #: ``on_chunk_request(representation, chunk_duration)`` right
        #: before each chunk GET is issued (MP-DASH-style path managers
        #: learn the current rate requirement through this).
        self.on_chunk_request: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Session control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the streaming session (request the first chunk)."""
        if self._started:
            raise RuntimeError("player already started")
        self._started = True
        self._request_next()

    # ------------------------------------------------------------------
    # Buffer dynamics
    # ------------------------------------------------------------------
    def _update_buffer(self) -> None:
        """Advance playback consumption to the current time."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if not self.playing or elapsed <= 0:
            return
        if elapsed >= self.buffer_level:
            # Playback ran dry somewhere inside the interval.
            stalled = elapsed - self.buffer_level
            self.buffer_level = 0.0
            self.playing = False
            if not self.finished:
                self.rebuffering = True
                self.metrics.rebuffer_events += 1
                self.metrics.rebuffer_time += stalled
        else:
            self.buffer_level -= elapsed

    # ------------------------------------------------------------------
    # Chunk pipeline
    # ------------------------------------------------------------------
    def _request_next(self) -> None:
        self._update_buffer()
        inputs = AbrInputs(
            buffer_level=self.buffer_level,
            throughput_estimate_bps=self._throughput_ewma,
            last_representation=self._last_rep,
            startup=self.startup,
            recent_throughputs_bps=tuple(self._recent_throughputs[-8:]),
        )
        representation = self.abr.choose(self.manifest, inputs)
        if self.on_chunk_request is not None:
            self.on_chunk_request(representation, self.manifest.chunk_duration)
        size = representation.chunk_bytes(self.manifest.chunk_duration)
        index = self._next_chunk
        self._next_chunk += 1
        requested_at = self.sim.now
        if self.trace is not None:
            self.trace.record("player.bitrate", requested_at, representation.bitrate_bps)

        def _on_complete(result: GetResult, rep=representation, idx=index, t0=requested_at) -> None:
            self._on_chunk_complete(rep, idx, t0, result)

        self.session.get(size, _on_complete)

    def _on_chunk_complete(
        self, rep: Representation, index: int, requested_at: float, result: GetResult
    ) -> None:
        self._update_buffer()
        now = self.sim.now
        record = ChunkRecord(
            index=index,
            representation=rep,
            requested_at=requested_at,
            completed_at=now,
            size=result.size,
        )
        self.metrics.chunks.append(record)
        self.downloaded_bytes += result.size
        self._last_rep = rep
        sample = record.throughput_bps
        if sample > 0:
            self._recent_throughputs.append(sample)
            if self._throughput_ewma is None:
                self._throughput_ewma = sample
            else:
                self._throughput_ewma = (
                    (1.0 - EWMA_GAIN) * self._throughput_ewma + EWMA_GAIN * sample
                )
        self.buffer_level = min(self.max_buffer, self.buffer_level + self.manifest.chunk_duration)
        if self.trace is not None:
            self.trace.record("player.download_bytes", now, float(self.downloaded_bytes))
            self.trace.record("player.buffer", now, self.buffer_level)

        # Phase transitions.  Startup (throughput-driven ABR) ends when
        # playback begins; from there the buffer map is in charge.
        if not self.playing:
            threshold = self.resume_threshold if self.rebuffering else self.start_threshold
            if self.buffer_level >= threshold or self._next_chunk >= self.manifest.num_chunks:
                self.playing = True
                self.rebuffering = False
                self._last_update = now
                if self.startup:
                    self.startup = False
                    self.metrics.startup_completed_at = now

        if self._next_chunk >= self.manifest.num_chunks:
            self.finished = True
            self.metrics.finished_at = now
            return

        # ON-OFF: wait for the buffer to drain one chunk's worth of room.
        room = self.max_buffer - self.buffer_level
        if room >= self.manifest.chunk_duration or not self.playing:
            self._request_next()
        else:
            wait = self.manifest.chunk_duration - room
            self.sim.schedule(wait, self._request_next)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "finished" if self.finished
            else "startup" if self.startup
            else "rebuffering" if self.rebuffering
            else "steady"
        )
        return (
            f"DashPlayer({state}, buffer={self.buffer_level:.1f}s, "
            f"chunk={self._next_chunk}/{self.manifest.num_chunks})"
        )
