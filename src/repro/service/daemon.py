"""Long-lived campaign daemon: drain loop + OpenMetrics scrape endpoint.

``python -m repro.cli campaign serve`` turns the per-invocation drain
into a service: a :class:`CampaignDaemon` owns one campaign, runs drain
iterations in a loop (picking up newly submitted jobs and orphans from
killed predecessors), and exposes an HTTP endpoint -- stdlib
``http.server``, no new dependencies -- with three routes:

``/metrics``
    The telemetry registry (:mod:`repro.obs.registry`) rendered as
    OpenMetrics text.  Point a Prometheus scrape config at it; the
    ``repro_campaign_jobs`` gauges are refreshed from the store (ground
    truth) on every drain-loop iteration, so a scrape after a
    kill-and-resume equals ``campaign status`` exactly.
``/status``
    The machine-readable JSON status document -- the *same* document
    ``campaign status --json`` prints, plus daemon-side rates
    (events/s, jobs/s, ETA).  ``campaign watch`` polls this.
``/healthz``
    ``ok`` (liveness only).

Threading model: SQLite connections are bound to their creating thread,
so the drain loop (main thread) is the only thing that touches the
store.  The HTTP thread reads a cached status document and the registry
behind ``self._lock``; the loop refreshes both after every iteration.
Telemetry flows in through the three hooks this PR added --
``store.on_transition``, the runner's ``journal_observer``, and the
runner's ``on_outcome`` (which carries per-job perf records across the
pool boundary).
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.experiments.exec import JobOutcome
from repro.obs.registry import (
    OPENMETRICS_CONTENT_TYPE,
    MetricRegistry,
    publish_journal_record,
    publish_perf_counters,
    publish_store_counts,
    publish_transition,
    render_openmetrics,
)
from repro.service.runner import CampaignRunner
from repro.service.store import CampaignStore

if TYPE_CHECKING:  # pragma: no cover - start_http() imports it when it binds
    from http.server import ThreadingHTTPServer

#: Default journal bound for daemon drains: ~16 MiB active file, tail of
#: 1024 records retained across rotations.
DEFAULT_JOURNAL_MAX_BYTES = 16 * 1024 * 1024
DEFAULT_JOURNAL_RETAIN_TAIL = 1024


def status_document(
    store: CampaignStore,
    name: str,
    events_per_s: Optional[float] = None,
    jobs_per_s: Optional[float] = None,
) -> Dict[str, Any]:
    """The campaign's machine-readable status.

    This is the single source both surfaces share: ``campaign status
    --json`` builds it straight from the store; the daemon builds it
    after every drain iteration (adding its measured rates) and serves
    it on ``/status``.
    """
    campaign = store.campaign(name)
    if campaign is None:
        raise KeyError(f"no campaign named {name!r}")
    counts = store.counts(campaign.id)
    total = sum(counts.values())
    by_status, retries = store.journal_summary(campaign.id)
    cached = by_status.get("cached", 0)
    executed = by_status.get("executed", 0)
    resolved = cached + executed
    remaining = counts.get("pending", 0) + counts.get("running", 0)
    eta_s: Optional[float] = None
    if remaining == 0:
        eta_s = 0.0
    elif jobs_per_s is not None and jobs_per_s > 0:
        eta_s = remaining / jobs_per_s
    return {
        "campaign": name,
        "backend": campaign.backend,
        "cache_dir": campaign.cache_dir,
        "counts": counts,
        "total": total,
        "remaining": remaining,
        "done_fraction": (counts.get("done", 0) / total) if total else 1.0,
        "journal_jobs": by_status,
        "cache_hit_rate": (cached / resolved) if resolved else None,
        "retries": retries,
        "events_per_s": events_per_s,
        "jobs_per_s": jobs_per_s,
        "eta_s": eta_s,
        # Bookkeeping timestamp (campaign layer, not simulation state).
        "updated_wall": time.time(),
    }


def render_watch_line(doc: Dict[str, Any]) -> str:
    """One terminal line of a status document (``campaign watch``)."""
    counts = doc.get("counts", {})
    hit_rate = doc.get("cache_hit_rate")
    hits = "-" if hit_rate is None else f"{100.0 * hit_rate:.0f}%"
    events = doc.get("events_per_s")
    rate = "-" if not events else f"{events / 1000.0:.0f}k/s"
    eta = doc.get("eta_s")
    eta_text = "-" if eta is None else f"{eta:.0f}s"
    return (
        f"[{doc.get('campaign', '?')}] "
        f"pending={counts.get('pending', 0)} "
        f"running={counts.get('running', 0)} "
        f"done={counts.get('done', 0)} "
        f"failed={counts.get('failed', 0)} "
        f"cache-hits={hits} events={rate} eta={eta_text}"
    )


class CampaignDaemon:
    """Own one campaign: drain it in a loop, serve its telemetry.

    Parameters mirror :class:`~repro.service.runner.CampaignRunner`
    (which this wraps); ``port=0`` binds an ephemeral port (read it back
    from :attr:`port` after :meth:`start_http`).
    """

    def __init__(
        self,
        store: CampaignStore,
        name: str,
        backend: Optional[Any] = None,
        cache_dir: Optional[str] = None,
        journal: Optional[str] = None,
        max_attempts: int = 3,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval_s: float = 2.0,
        journal_max_bytes: Optional[int] = DEFAULT_JOURNAL_MAX_BYTES,
        journal_retain_tail: int = DEFAULT_JOURNAL_RETAIN_TAIL,
    ) -> None:
        self.name = name
        self.store = store
        self.host = host
        self.port = port
        self.poll_interval_s = poll_interval_s
        self.registry = MetricRegistry()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._status: Dict[str, Any] = {"campaign": name, "counts": {}}
        # Daemon-side rate accounting (host wall clock; campaign layer).
        self._started = time.monotonic()
        self._jobs_done = 0
        store.on_transition = self._on_transition
        self.runner = CampaignRunner(
            store,
            name,
            backend=backend,
            cache_dir=cache_dir,
            journal=journal,
            max_attempts=max_attempts,
            journal_kwargs={
                "max_bytes": journal_max_bytes,
                "retain_tail": journal_retain_tail,
            },
            journal_observer=self._on_journal_record,
            on_outcome=self._on_outcome,
        )

    # -- telemetry hooks (drain-loop thread) -----------------------------
    def _on_transition(
        self, campaign_id: int, key: str, old_status: str, new_status: str
    ) -> None:
        if campaign_id != self.runner.campaign_id:
            return  # a shared store may carry other campaigns
        with self._lock:
            publish_transition(
                self.registry, old_status, new_status, campaign=self.name
            )

    def _on_journal_record(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            publish_journal_record(self.registry, entry, campaign=self.name)

    def _on_outcome(self, outcome: JobOutcome) -> None:
        with self._lock:
            if outcome.status in ("cached", "executed"):
                self._jobs_done += 1
            if outcome.perf:
                publish_perf_counters(
                    self.registry, outcome.perf, campaign=self.name
                )
                events_per_s = self._events_per_s()
                if events_per_s is not None:
                    self.registry["repro_serve_events_per_second"].set(
                        events_per_s, campaign=self.name
                    )

    # -- rates -----------------------------------------------------------
    def _events_per_s(self) -> Optional[float]:
        """Events per wall second over every measured job so far, read
        back from the perf totals the registry holds (caller holds the
        lock)."""
        wall = self.registry["repro_perf_wall_seconds"].value(campaign=self.name)
        if wall <= 0:
            return None
        events = self.registry["repro_perf_events_dispatched"].value(
            campaign=self.name
        )
        return events / wall

    def _rates(self) -> Dict[str, Optional[float]]:
        elapsed = time.monotonic() - self._started
        jobs_per_s = self._jobs_done / elapsed if elapsed > 0 else None
        with self._lock:
            events_per_s = self._events_per_s()
        return {"jobs_per_s": jobs_per_s, "events_per_s": events_per_s}

    def refresh(self) -> Dict[str, Any]:
        """Rebuild gauges + the cached status doc from store ground truth.

        Runs on the drain-loop thread (the store's thread); the HTTP
        thread only ever reads the results under the lock.
        """
        counts = self.store.counts(self.runner.campaign_id)
        rates = self._rates()
        doc = status_document(
            self.store,
            self.name,
            events_per_s=rates["events_per_s"],
            jobs_per_s=rates["jobs_per_s"],
        )
        with self._lock:
            publish_store_counts(self.registry, counts, campaign=self.name)
            self._status = doc
        return doc

    # -- HTTP ------------------------------------------------------------
    def start_http(self) -> None:
        """Bind and serve ``/metrics`` + ``/status`` on a daemon thread."""
        # Imported here, like ``urlopen`` below: ``import repro`` reaches
        # this module, and only a serving daemon needs http.server (which
        # drags in http.client, email, ssl and socketserver).
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        daemon = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path in ("/metrics", "/metrics/"):
                    with daemon._lock:
                        daemon.registry["repro_serve_scrapes"].inc()
                        body = render_openmetrics(daemon.registry).encode()
                    self._reply(200, OPENMETRICS_CONTENT_TYPE, body)
                elif path in ("/status", "/status/", "/"):
                    with daemon._lock:
                        body = json.dumps(
                            daemon._status, indent=2, sort_keys=True
                        ).encode()
                    self._reply(200, "application/json; charset=utf-8", body)
                elif path == "/healthz":
                    self._reply(200, "text/plain; charset=utf-8", b"ok\n")
                else:
                    self._reply(
                        404, "text/plain; charset=utf-8", b"not found\n"
                    )

            def _reply(self, code: int, ctype: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                return  # scrapes are telemetry, not log lines

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-campaign-http",
            daemon=True,
        )
        self._server_thread.start()

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- the drain loop ---------------------------------------------------
    def stop(self) -> None:
        """Ask the loop to exit after the current iteration."""
        self._stop.set()

    def serve(
        self,
        max_loops: Optional[int] = None,
        linger: bool = True,
    ) -> Dict[str, Any]:
        """Run the daemon: drain, refresh telemetry, sleep, repeat.

        Every iteration drains whatever is pending (orphaned ``running``
        jobs from a killed predecessor are reset first -- the daemon
        assumes it is the campaign's only drainer) and refreshes the
        scrape surfaces.  With ``linger=False`` the loop exits once no
        work remains; the default keeps serving so a long-lived daemon
        picks up jobs submitted later and its endpoint outlives the
        drain (CI scrapes after completion).  ``max_loops`` bounds the
        iterations (tests).  Returns the final status document.
        """
        loops = 0
        doc = self.refresh()
        while not self._stop.is_set():
            self.runner.drain(reset_orphans=True)
            loops += 1
            with self._lock:
                self.registry["repro_serve_loops"].inc(campaign=self.name)
            doc = self.refresh()
            if max_loops is not None and loops >= max_loops:
                break
            if not linger and doc["remaining"] == 0:
                break
            self._stop.wait(self.poll_interval_s)
        return doc

    def shutdown(self) -> None:
        """Stop the loop and the HTTP server (idempotent)."""
        self.stop()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5)
            self._server_thread = None
        if self.store.on_transition == self._on_transition:
            self.store.on_transition = None


def fetch_status(endpoint: str, timeout_s: float = 5.0) -> Dict[str, Any]:
    """GET ``<endpoint>/status`` and parse it (``campaign watch``)."""
    from urllib.request import urlopen

    url = endpoint.rstrip("/") + "/status"
    with urlopen(url, timeout=timeout_s) as response:  # noqa: S310 - local
        payload = json.loads(response.read().decode())
    if not isinstance(payload, dict):
        raise ValueError(f"unexpected status payload from {url}")
    return payload


def fetch_metrics(endpoint: str, timeout_s: float = 5.0) -> str:
    """GET ``<endpoint>/metrics`` as text (CI validation path)."""
    from urllib.request import urlopen

    url = endpoint.rstrip("/") + "/metrics"
    with urlopen(url, timeout=timeout_s) as response:  # noqa: S310 - local
        return response.read().decode()


__all__ = [
    "CampaignDaemon",
    "DEFAULT_JOURNAL_MAX_BYTES",
    "DEFAULT_JOURNAL_RETAIN_TAIL",
    "fetch_metrics",
    "fetch_status",
    "render_watch_line",
    "status_document",
]
