"""Lightweight named time-series recording.

Used throughout the library to collect the traces the paper plots: CWND over
time (Figs 11-12), send-buffer occupancy (Fig 3), player download progress
(Fig 1).  Recording is append-only and can be disabled globally for large
parameter sweeps where only summary statistics matter, or capped per series
(``max_samples_per_series``) for long check-mode runs where only the recent
tail of each series is of interest.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim import probe as _probe

Sample = Tuple[float, float]

_Bucket = Union[List[Sample], Deque[Sample]]


class TraceRecorder:
    """Collects ``(time, value)`` samples into named series.

    Parameters
    ----------
    enabled: when False, :meth:`record` is a no-op.
    max_samples_per_series: optional bound per series; once a series is
        full, each new sample evicts the oldest one, so memory stays
        O(series x cap) on arbitrarily long runs.
    """

    __slots__ = ("enabled", "max_samples_per_series", "_series")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("enabled", "max_samples_per_series", "_series")

    def __init__(
        self, enabled: bool = True, max_samples_per_series: Optional[int] = None
    ) -> None:
        if max_samples_per_series is not None and max_samples_per_series < 1:
            raise ValueError(
                f"max_samples_per_series must be >= 1, got {max_samples_per_series!r}"
            )
        self.enabled = enabled
        self.max_samples_per_series = max_samples_per_series
        self._series: Dict[str, _Bucket] = {}
        probe = _probe.ACTIVE
        if probe is not None:
            probe.adopt(self)

    def _bucket(self, series: str) -> _Bucket:
        bucket = self._series.get(series)
        if bucket is None:
            if self.max_samples_per_series is None:
                bucket = []
            else:
                bucket = deque(maxlen=self.max_samples_per_series)
            self._series[series] = bucket
        return bucket

    def record(self, series: str, time: float, value: float) -> None:
        """Append one sample; no-op when the recorder is disabled."""
        if not self.enabled:
            return
        self._bucket(series).append((time, value))

    def series(self, name: str) -> List[Sample]:
        """Samples of one series (empty list if never recorded)."""
        bucket = self._series.get(name)
        if bucket is None:
            return []
        if isinstance(bucket, deque):
            return list(bucket)
        return bucket

    def names(self) -> List[str]:
        """Sorted names of all recorded series."""
        return sorted(self._series)

    def last(self, name: str) -> Sample:
        """Most recent sample of a series.

        Raises
        ------
        KeyError
            If the series has no samples.
        """
        samples = self._series.get(name)
        if not samples:
            raise KeyError(f"no samples recorded for series {name!r}")
        return samples[-1]

    def values(self, name: str) -> List[float]:
        """Just the values of a series, in time order."""
        return [v for _, v in self.series(name)]

    def times(self, name: str) -> List[float]:
        """Just the timestamps of a series, in time order."""
        return [t for t, _ in self.series(name)]

    def window(self, name: str, start: float, end: float) -> List[Sample]:
        """Samples with ``start <= time <= end``."""
        return [(t, v) for t, v in self.series(name) if start <= t <= end]

    def merge(self, other: "TraceRecorder", prefix: str = "") -> None:
        """Copy all series from ``other`` into this recorder."""
        for name in other.names():
            self._bucket(prefix + name).extend(other.series(name))

    def extend(self, series: str, samples: Iterable[Sample]) -> None:
        """Bulk-append pre-timestamped samples (bypasses ``enabled``)."""
        self._bucket(series).extend(samples)

    def clear(self) -> None:
        """Drop all recorded series."""
        self._series.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {k: len(v) for k, v in self._series.items()}
        return f"TraceRecorder(enabled={self.enabled}, series={sizes})"
