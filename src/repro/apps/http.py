"""HTTP/1.1 over MPTCP: persistent connections with sequential GETs.

The paper's workloads are all HTTP: DASH chunk fetches, wget downloads,
and Web-object retrieval over persistent connections.  :class:`HttpSession`
models one client/server pair sharing one MPTCP connection:

* the client issues a GET by sending a small request packet up the
  *primary path's* reverse link (requests ride the primary subflow, as a
  real client's tiny requests do), so request latency and reverse-path
  queueing are part of every measured completion time;
* on arrival the server writes the response body into the MPTCP
  connection; the pluggable path scheduler takes it from there;
* the client watches the in-order delivered byte stream for response
  boundaries (HTTP/1.1 without pipelining: requests on one connection are
  strictly sequential).

Completion time of a GET = request issue to last response byte delivered
in order, matching how the paper's client-side measurements see it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, List, Optional

from repro.mptcp.connection import MptcpConnection
from repro.net.packet import Packet
from repro.sim.engine import Simulator

#: Wire size of an HTTP GET request (headers fit in one small packet).
REQUEST_SIZE = 300


@dataclass(frozen=True)
class GetResult:
    """Outcome of one completed GET."""

    index: int
    size: int
    issued_at: float
    first_byte_at: float
    completed_at: float

    @property
    def completion_time(self) -> float:
        """Request-to-last-byte latency (the paper's download time)."""
        return self.completed_at - self.issued_at

    @property
    def throughput_bps(self) -> float:
        """Response bytes over completion time."""
        elapsed = self.completion_time
        return self.size * 8.0 / elapsed if elapsed > 0 else 0.0


class _PendingGet:
    __slots__ = ("index", "size", "issued_at", "first_byte_at", "remaining", "callback")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("index", "size", "issued_at", "first_byte_at", "remaining", "callback")

    def __init__(self, index: int, size: int, issued_at: float, callback) -> None:
        self.index = index
        self.size = size
        self.issued_at = issued_at
        self.first_byte_at: Optional[float] = None
        self.remaining = size
        self.callback = callback


class HttpSession:
    """One persistent HTTP exchange over one MPTCP connection.

    Parameters
    ----------
    sim: the simulator.
    conn: the MPTCP connection to ride (its delivery callback is taken
        over by the session).
    request_size: request packet size on the wire, bytes.
    """

    __slots__ = (
        "sim",
        "conn",
        "request_size",
        "results",
        "observers",
        "_pending",
        "_next_index",
    )

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "sim",
        "conn",
        "request_size",
        "results",
        "observers",
        "_pending",
        "_next_index",
    )

    def __init__(self, sim: Simulator, conn: MptcpConnection, request_size: int = REQUEST_SIZE) -> None:
        self.sim = sim
        self.conn = conn
        self.request_size = int(request_size)
        self.results: List[GetResult] = []
        #: Observers invoked (after the per-GET callback) for every
        #: completed GET; experiment harnesses hook per-download metrics
        #: here without wrapping the application.
        self.observers: List[Callable[[GetResult], None]] = []
        self._pending: Deque[_PendingGet] = deque()
        self._next_index = 0
        conn.set_deliver_callback(self._on_bytes)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def get(self, size: int, on_complete: Optional[Callable[[GetResult], None]] = None) -> int:
        """Issue a GET for a ``size``-byte object; returns its index.

        ``on_complete(result)`` fires when the last response byte is
        delivered in order at the client.
        """
        if size <= 0:
            raise ValueError(f"GET size must be positive, got {size!r}")
        index = self._next_index
        self._next_index += 1
        pending = _PendingGet(index, int(size), self.sim.now, on_complete)
        self._pending.append(pending)
        request = Packet(size=self.request_size)
        primary = self.conn.subflows[0].path
        primary.reverse.send(request, partial(self._request_arrived, size))
        return index

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _server_on_request(self, size: int) -> None:
        self.conn.write(size)

    def _request_arrived(self, size: int, _packet: Packet) -> None:
        """Link-delivery adapter: ``partial(self._request_arrived, size)``
        replaces the per-GET closure the request path used to allocate."""
        self.conn.write(size)

    # ------------------------------------------------------------------
    # Client side delivery tracking
    # ------------------------------------------------------------------
    def _on_bytes(self, nbytes: int) -> None:
        now = self.sim.now
        while nbytes > 0 and self._pending:
            head = self._pending[0]
            if head.first_byte_at is None:
                head.first_byte_at = now
            consumed = min(nbytes, head.remaining)
            head.remaining -= consumed
            nbytes -= consumed
            if head.remaining == 0:
                self._pending.popleft()
                result = GetResult(
                    index=head.index,
                    size=head.size,
                    issued_at=head.issued_at,
                    first_byte_at=head.first_byte_at,
                    completed_at=now,
                )
                self.results.append(result)
                if head.callback is not None:
                    head.callback(result)
                for observer in self.observers:
                    observer(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HttpSession(completed={len(self.results)}, "
            f"pending={len(self._pending)})"
        )
