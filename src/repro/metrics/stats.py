"""Distribution statistics used across the experiment harnesses.

The paper reports results as means, CDFs (Fig 5), and CCDFs (Figs 13, 14,
20, 21, 23); these helpers compute exactly those from raw sample lists,
with no third-party dependencies.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean.  Raises ValueError on an empty sequence."""
    if not samples:
        raise ValueError("mean() of empty sequence")
    return sum(samples) / len(samples)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile() of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lower = int(math.floor(pos))
    upper = int(math.ceil(pos))
    if lower == upper:
        return ordered[lower]
    frac = pos - lower
    return ordered[lower] * (1.0 - frac) + ordered[upper] * frac


def cdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF points ``(x, P[X <= x])``, one per distinct value."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    for index, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, index / n)
        else:
            points.append((value, index / n))
    return points


def ccdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Complementary CDF points ``(x, P[X > x])``."""
    return [(x, 1.0 - p) for x, p in cdf(samples)]

