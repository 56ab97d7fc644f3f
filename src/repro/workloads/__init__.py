"""Workload generators: Web pages, file matrices, bandwidth scenarios."""

from repro.workloads.web import (
    WebBrowsingResult,
    WebBrowsingSpec,
    WebPage,
    cnn_like_page,
    run_web,
)
from repro.workloads.scenarios import random_bandwidth_scenarios

__all__ = [
    "WebPage",
    "cnn_like_page",
    "WebBrowsingSpec",
    "WebBrowsingResult",
    "run_web",
    "random_bandwidth_scenarios",
]
