"""RTT estimation per RFC 6298, extended with a windowed standard deviation.

The classic estimator keeps the exponentially weighted SRTT and RTTVAR used
for the retransmission timeout.  ECF additionally needs ``sigma``, "the
standard deviation of RTT" per subflow (Section 4), which we compute over a
sliding window of recent samples -- matching how the kernel implementation
tracks recent variability rather than an all-time statistic.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

#: RFC 6298 smoothing gains.
ALPHA = 0.125
BETA = 0.25

#: Linux TCP_RTO_MIN: the floor on the *variance term* of the RTO, so the
#: effective RTO is never below SRTT + 200 ms.  Flooring the whole RTO at
#: 200 ms instead (a common simulator shortcut) makes idle-restart fire on
#: the short think-gaps between back-to-back HTTP requests, which real
#: kernels do not do.
MIN_RTO_VAR = 0.2
MAX_RTO = 60.0

#: Number of recent samples over which ECF's sigma is computed.
SIGMA_WINDOW = 16

#: :attr:`RttEstimator.sigma` never exceeds this multiple of the window's
#: largest sample.  Samples are positive, so the range of n >= 2 samples is
#: below their maximum, and their sample standard deviation is at most
#: sqrt(n / (n - 1)) * range / 2 <= max / sqrt(2) ~= 0.707 * max; 0.75
#: leaves room for the rounding of the mean, the squares and the root.  It
#: holds while no square under- or overflows (a largest sample between
#: 1e-150 s and :data:`MAX_RTT_SAMPLE`).  A derived constant, not a knob:
#: ECF decides on it and reads sigma only when the bound leaves the
#: decision open.
SIGMA_BOUND = 0.75

#: :meth:`RttEstimator.add_sample` refuses samples at or above this many
#: seconds: past it the squares behind sigma overflow (``sigma`` raises
#: ``OverflowError``) and :data:`SIGMA_BOUND` no longer holds.
MAX_RTT_SAMPLE = 1e150


class RttEstimator:
    """Tracks SRTT, RTTVAR, RTO, and a windowed RTT standard deviation.

    >>> est = RttEstimator()
    >>> est.add_sample(0.1)
    >>> round(est.srtt, 3)
    0.1
    >>> est.add_sample(0.1)
    >>> est.rto >= est.srtt + MIN_RTO_VAR
    True
    """

    __slots__ = (
        "min_rto_var",
        "max_rto",
        "srtt",
        "rttvar",
        "samples",
        "_sum",
        "_window",
        "rto",
        "_sigma",
    )

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "min_rto_var",
        "max_rto",
        "srtt",
        "rttvar",
        "samples",
        "_sum",
        "_window",
        "rto",
        "_sigma",
    )

    def __init__(
        self,
        initial_rtt: Optional[float] = None,
        min_rto_var: float = MIN_RTO_VAR,
        max_rto: float = MAX_RTO,
        sigma_window: int = SIGMA_WINDOW,
    ) -> None:
        if sigma_window < 2:
            raise ValueError(f"sigma_window must be >= 2, got {sigma_window!r}")
        self.min_rto_var = min_rto_var
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.samples = 0
        self._sum = 0.0
        self._window: Deque[float] = deque(maxlen=sigma_window)
        #: Retransmission timeout, Linux-style: SRTT + max(200ms, 4*RTTVAR),
        #: set when a sample lands; RFC 6298's 1 s before the first.
        self.rto = 1.0
        self._sigma: Optional[float] = None  # memoised sigma; None = stale
        if initial_rtt is not None:
            self.add_sample(initial_rtt)

    def add_sample(self, rtt: float) -> None:
        """Feed one round-trip measurement (seconds).

        Retransmitted segments must not be sampled (Karn's algorithm); the
        subflow enforces that before calling here.  A sample must be
        positive and finite, and below :data:`MAX_RTT_SAMPLE`: one NaN or
        inf would pin ``rto`` at ``max_rto`` and idle the path for good,
        and a larger one would overflow sigma.
        """
        if not 0.0 < rtt < MAX_RTT_SAMPLE:  # also false for NaN; no C call
            raise ValueError(
                f"rtt sample must be positive and finite (below {MAX_RTT_SAMPLE:g} s), "
                f"got {rtt!r}"
            )
        srtt = self.srtt
        if srtt is None:
            srtt = rtt
            rttvar = rtt / 2.0
        else:
            # abs(srtt - rtt) without the C call.  Not ``x - y if x > y
            # else y - x``: that gives -0.0 for (+0.0, -0.0).
            diff = srtt - rtt
            rttvar = (1.0 - BETA) * self.rttvar + BETA * (diff if diff > 0.0 else 0.0 - diff)
            srtt = (1.0 - ALPHA) * srtt + ALPHA * rtt
        self.srtt = srtt
        self.rttvar = rttvar
        self.samples += 1
        self._sum += rtt
        self._window.append(rtt)
        self._sigma = None
        # min(max_rto, srtt + max(min_rto_var, 4 * rttvar)), as comparisons.
        var_term = 4.0 * rttvar
        raw = srtt + (var_term if var_term > self.min_rto_var else self.min_rto_var)
        self.rto = raw if raw < self.max_rto else self.max_rto

    @property
    def sigma(self) -> float:
        """Windowed RTT standard deviation (ECF's per-subflow sigma),
        computed on the first read after a sample."""
        sigma = self._sigma
        if sigma is None:
            window = self._window
            n = len(window)
            if n < 2:
                sigma = 0.0
            else:
                # sum() twice, in window order: 3.12 compensates float sums.
                mean = sum(window) / n
                var = sum([(x - mean) ** 2 for x in window]) / (n - 1)
                sigma = math.sqrt(var)
            self._sigma = sigma
        return sigma

    @property
    def mean_rtt(self) -> float:
        """All-time mean of raw RTT samples (Table 2's 'average RTT')."""
        if self.samples == 0:
            return 0.0
        return self._sum / self.samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.srtt is None:
            return "RttEstimator(no samples)"
        return (
            f"RttEstimator(srtt={self.srtt * 1e3:.1f} ms, "
            f"rttvar={self.rttvar * 1e3:.1f} ms, rto={self.rto:.3f} s, "
            f"sigma={self.sigma * 1e3:.1f} ms)"
        )
