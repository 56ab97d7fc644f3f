"""Measurement utilities: distribution statistics and the periodic sampler.

Result wire formats live with the result types (``to_dict``/``from_dict``
on each ``*Result``); the telemetry registry is :mod:`repro.obs.registry`.
"""

from repro.metrics.stats import (
    Summary,
    cdf,
    ccdf,
    fraction_at_least,
    fraction_at_most,
    mean,
    percentile,
    stdev,
    summarize,
)
from repro.metrics.collectors import PeriodicSampler

__all__ = [
    "Summary",
    "cdf",
    "ccdf",
    "percentile",
    "mean",
    "stdev",
    "summarize",
    "fraction_at_most",
    "fraction_at_least",
    "PeriodicSampler",
]
