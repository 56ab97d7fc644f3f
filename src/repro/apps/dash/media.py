"""Video representations and manifests.

Table 1 of the paper::

    Resolution  144p  240p  360p  480p  760p  1080p
    Bit rate    0.26  0.64  1.00  1.60  4.14  8.47   (Mbps)

The testbed video is 1332 s long, served as 5-second chunks in six
representations ("just as Youtube does").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class Representation:
    """One encoding of the video."""

    name: str
    bitrate_bps: float

    def chunk_bytes(self, chunk_duration: float) -> int:
        """Size of one chunk of this representation, bytes."""
        return max(1, int(self.bitrate_bps * chunk_duration / 8.0))


#: Table 1 of the paper (note: the paper labels the 4.14 Mbps tier "760p";
#: that is its typo for 720p, kept here as 720p).
PAPER_REPRESENTATIONS: Tuple[Representation, ...] = (
    Representation("144p", 0.26e6),
    Representation("240p", 0.64e6),
    Representation("360p", 1.00e6),
    Representation("480p", 1.60e6),
    Representation("720p", 4.14e6),
    Representation("1080p", 8.47e6),
)

#: The paper's chunk length, seconds.
PAPER_CHUNK_DURATION = 5.0

#: The paper's video length, seconds.
PAPER_VIDEO_DURATION = 1332.0


class VideoManifest:
    """A DASH manifest: representations + chunk grid.

    >>> manifest = VideoManifest(duration=20.0, chunk_duration=5.0)
    >>> manifest.num_chunks
    4
    """

    __slots__ = ("duration", "chunk_duration", "representations")

    def __init__(
        self,
        duration: float = PAPER_VIDEO_DURATION,
        chunk_duration: float = PAPER_CHUNK_DURATION,
        representations: Sequence[Representation] = PAPER_REPRESENTATIONS,
    ) -> None:
        if duration <= 0 or chunk_duration <= 0:
            raise ValueError("duration and chunk_duration must be positive")
        if not representations:
            raise ValueError("at least one representation is required")
        rates = [r.bitrate_bps for r in representations]
        if rates != sorted(rates):
            raise ValueError("representations must be sorted by bitrate")
        self.duration = float(duration)
        self.chunk_duration = float(chunk_duration)
        self.representations: List[Representation] = list(representations)

    @property
    def num_chunks(self) -> int:
        """Number of chunks covering the video (last chunk may be short
        in reality; modelled as full length)."""
        return max(1, int(round(self.duration / self.chunk_duration)))

    @property
    def lowest(self) -> Representation:
        return self.representations[0]

    @property
    def highest(self) -> Representation:
        return self.representations[-1]

    def best_under(self, rate_bps: float) -> Representation:
        """Highest representation with bitrate <= ``rate_bps`` (or lowest)."""
        choice = self.representations[0]
        for rep in self.representations:
            if rep.bitrate_bps <= rate_bps:
                choice = rep
        return choice

    def ideal_average_bitrate(self, aggregate_bandwidth_bps: float) -> float:
        """Section 3.1's ideal: min(aggregate bandwidth, top bitrate).

        "we define the ideal average bit rate as the minimum of the
        aggregate total bandwidth and the bandwidth required for the
        highest resolution."
        """
        return min(aggregate_bandwidth_bps, self.highest.bitrate_bps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "/".join(r.name for r in self.representations)
        return (
            f"VideoManifest({self.duration:.0f}s, {self.chunk_duration:.0f}s "
            f"chunks, reps={names})"
        )
