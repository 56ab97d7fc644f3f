"""Web-browsing workload (Sections 5.5 and 6.3).

The paper deploys "a copy of CNN's home page (as of 9/11/2014) consisting
of 107 Web objects" and fetches it with a browser holding six parallel
persistent (MP)TCP connections.  We generate a deterministic synthetic
page with the same object count and a realistic heavy-tailed size mix
(web pages of that era: tens of small icons/scripts, a body of mid-size
images, a few large hero images), assign objects to connections the way a
browser queue does (next object goes to the first free connection), and
measure per-object download completion times and out-of-order delays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.apps.http import GetResult, HttpSession
from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.profiles import PathConfig, make_path
from repro.sim.codec import Record, Result, float_array
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Object count of the paper's CNN snapshot.
CNN_OBJECT_COUNT = 107

#: Browser connection pool size used in the paper.
BROWSER_CONNECTIONS = 6


@dataclass(frozen=True)
class WebPage:
    """A page: an ordered list of object sizes (bytes)."""

    object_sizes: Sequence[int]

    @property
    def total_bytes(self) -> int:
        return sum(self.object_sizes)

    def __len__(self) -> int:
        return len(self.object_sizes)


def cnn_like_page(seed: int = 2014, object_count: int = CNN_OBJECT_COUNT) -> WebPage:
    """Deterministic 107-object page with a 2014-news-site size mix.

    Mix: ~60% small assets (0.5-8 kB), ~30% images (8-120 kB, lognormal),
    ~10% large objects (120 kB - 1 MB).  The default draw totals
    11,611,598 B, a heavy sample of the mix: over seeds 0-999 the total
    runs from 4.2 MB (p5) through 7.0 MB (median) to 10.6 MB (p95).
    """
    rng = RngRegistry(seed).stream("web.page")
    sizes: List[int] = []
    for _ in range(object_count):
        bucket = rng.random()
        if bucket < 0.6:
            size = int(rng.uniform(500, 8_000))
        elif bucket < 0.9:
            size = int(min(120_000, max(8_000, rng.lognormvariate(10.0, 0.8))))
        else:
            size = int(rng.uniform(120_000, 1_000_000))
        sizes.append(size)
    return WebPage(tuple(sizes))


@dataclass(frozen=True)
class WebBrowsingSpec(Record):
    """Frozen description of one full-page load -- a plain value.

    ``object_sizes`` pins an explicit page; left ``None``, the page is
    derived deterministically from ``seed`` via :func:`cnn_like_page`, so
    the spec stays small while remaining a complete content address of
    the run (executor cache, pool workers).
    """

    kind: ClassVar[str] = "web_browsing"

    scheduler: str
    path_configs: Tuple[PathConfig, ...]
    seed: int = 0
    connections: int = BROWSER_CONNECTIONS
    object_sizes: Optional[Tuple[int, ...]] = None
    scheduler_params: Dict = field(default_factory=dict)
    connection: Optional[ConnectionConfig] = None
    timeout: float = 600.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "path_configs", tuple(self.path_configs))
        if self.object_sizes is not None:
            object.__setattr__(self, "object_sizes", tuple(self.object_sizes))

    def page(self) -> WebPage:
        """The page this spec loads."""
        if self.object_sizes is not None:
            return WebPage(self.object_sizes)
        return cnn_like_page(seed=2014 + self.seed)


@dataclass
class WebBrowsingResult(Result):
    """Outcome of one full-page load."""

    kind = "web_browsing"

    scheduler: str
    object_completion_times: List[float] = field(default_factory=list)
    #: Every connection's out-of-order delays, 8 bytes a sample.
    ooo_delays: array = field(default_factory=partial(array, "d"))
    page_load_time: float = 0.0
    objects_completed: int = 0
    total_objects: int = 0
    iw_resets: int = 0
    reinjections: int = 0
    #: Optional per-run perf record (``PerfRecord.to_dict()``), attached by
    #: the executor when ``REPRO_PERF=1``.
    perf: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        self.ooo_delays = float_array(self.ooo_delays)

    @property
    def complete(self) -> bool:
        return self.objects_completed == self.total_objects

    @property
    def mean_completion_time(self) -> float:
        if not self.object_completion_times:
            return 0.0
        return sum(self.object_completion_times) / len(self.object_completion_times)


class _BrowserQueue:
    """Feeds page objects to the first idle connection, like a browser."""

    def __init__(self, sim: Simulator, page: WebPage, sessions: List[HttpSession], result: WebBrowsingResult) -> None:
        self.sim = sim
        self.result = result
        self._remaining = list(page.object_sizes)
        self._sessions = sessions
        self._inflight = 0

    def start(self) -> None:
        for session in self._sessions:
            if not self._dispatch(session):
                break

    def _dispatch(self, session: HttpSession) -> bool:
        if not self._remaining:
            return False
        size = self._remaining.pop(0)
        self._inflight += 1
        session.get(size, lambda res, s=session: self._on_done(res, s))
        return True

    def _on_done(self, result: GetResult, session: HttpSession) -> None:
        self._inflight -= 1
        self.result.object_completion_times.append(result.completion_time)
        self.result.objects_completed += 1
        if self._remaining:
            self._dispatch(session)
        elif self._inflight == 0:
            self.result.page_load_time = self.sim.now


def run_web(spec: WebBrowsingSpec) -> WebBrowsingResult:
    """Load a page over ``spec.connections`` persistent MPTCP connections.

    Each connection gets its own scheduler instance (schedulers hold
    per-connection state), mirroring the paper's 6-connection browser
    (12 subflows with two interfaces).
    """
    page = spec.page()
    sim = Simulator()
    rngs = RngRegistry(spec.seed)
    result = WebBrowsingResult(scheduler=spec.scheduler, total_objects=len(page))

    # One shared set of links: all six connections contend for the same
    # regulated interfaces, exactly as in the testbed.
    paths = [
        make_path(sim, pc, rngs.stream(f"loss.p{path_index}"))
        for path_index, pc in enumerate(spec.path_configs)
    ]
    conns: List[MptcpConnection] = []
    sessions: List[HttpSession] = []
    for conn_index in range(spec.connections):
        scheduler = build(SchedulerSpec.of(spec.scheduler, **spec.scheduler_params))
        conn = MptcpConnection(
            sim, paths, scheduler, config=spec.connection, name=f"web-{conn_index}"
        )
        conns.append(conn)
        sessions.append(HttpSession(sim, conn))

    queue = _BrowserQueue(sim, page, sessions, result)
    queue.start()
    sim.run(until=spec.timeout)

    for conn in conns:
        result.ooo_delays.extend(conn.receiver.ooo_delays)
        result.iw_resets += sum(sf.stats.iw_resets for sf in conn.subflows)
        result.reinjections += conn.reinjections
    if not result.page_load_time and result.objects_completed:
        result.page_load_time = sim.now
    return result


def _register() -> None:
    from repro.experiments.spec import register_experiment

    register_experiment("web_browsing", WebBrowsingSpec.from_dict, run_web, WebBrowsingResult.from_dict)


_register()
