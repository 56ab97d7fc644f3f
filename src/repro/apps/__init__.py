"""Application layer: HTTP, bulk downloads, and DASH video streaming."""

from repro.apps.http import GetResult, HttpSession
from repro.apps.bulk import BulkDownloadResult, BulkDownloadSpec, run_bulk

__all__ = [
    "HttpSession",
    "GetResult",
    "BulkDownloadSpec",
    "BulkDownloadResult",
    "run_bulk",
]
