"""Heap-based discrete-event simulator.

The engine is intentionally small: a priority queue of ``(time, rank,
seq, Timer)`` entries, a simulated clock, and cancellable :class:`Timer`
handles.  Everything else in the library (links, TCP subflows, DASH players)
is expressed as callbacks scheduled on one :class:`Simulator` instance.

Determinism: results do not depend on the order in which same-instant
events were scheduled; an instant's events run in owner-construction
order.  Every object whose bound methods are scheduled (a link, a subflow,
a connection, a player, a sampler) takes a per-world construction index,
its *rank*, from :meth:`Simulator.next_rank` when it is built, and the
heap orders entries by ``(time, owner rank, seq)``.  A callback with no
ranked owner (a lambda, ``Path.set_rate``, a bound method of a plain list)
has rank 0 and runs first at its instant.  The sequence number only orders
one owner's own same-instant events, so two runs with the same seed
execute events in the same order regardless of hash randomization or dict
ordering.

Tie-break randomization: correct simulation code must not depend on the
order of one owner's same-instant events.  Constructing a simulator with
``tie_break="random"`` (or running scenarios under the
:func:`forced_tie_break` context manager, which the race detector in
:mod:`repro.analysis.races` uses) shuffles the events whose ``(time,
rank)`` are equal with a seeded stream while keeping each individual run
fully deterministic.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from types import MethodType as _MethodType
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.sim import probe as _probe

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Heap compaction trigger: rebuild once at least this many cancelled
#: entries sit in the heap *and* they outnumber the live ones.  The floor
#: keeps tiny simulations from compacting pointlessly; the fraction bound
#: keeps the amortized cost O(1) per cancellation.
_COMPACT_MIN_CANCELLED = 256

#: Forced tie-break policy for newly constructed simulators, or ``None``.
#: Set via :func:`forced_tie_break`; lets the race detector re-run scenario
#: code that builds its own ``Simulator()`` internally.
_FORCED_TIE_BREAK: Optional[Tuple[str, int]] = None


@contextmanager
def forced_tie_break(mode: str, seed: int = 0) -> Iterator[None]:
    """Force every ``Simulator()`` constructed in the body to ``mode``.

    ``mode`` is ``"fifo"`` (the canonical key, the default) or
    ``"random"`` (seeded shuffle of events whose time and owner rank are
    equal).  Explicit constructor arguments still win over the forced
    default.
    """
    global _FORCED_TIE_BREAK
    previous = _FORCED_TIE_BREAK
    _FORCED_TIE_BREAK = (mode, seed)
    try:
        yield
    finally:
        _FORCED_TIE_BREAK = previous


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (negative delays, etc.)."""


class Timer:
    """Handle for a scheduled event.

    A ``Timer`` can be cancelled before it fires; cancellation is O(1) --
    the entry stays in the heap but is skipped when popped.  The owning
    simulator counts cancellations and compacts the heap once dead
    entries dominate it, so a workload that cancels aggressively does not
    drag a mostly-dead heap through every sift.  A fired timer can be
    armed again (:meth:`Simulator.arm`): an owner with one event pending
    at a time keeps one timer instead of allocating one per event.  The
    owner rank of its heap key, ``rank``, is resolved when it is built.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "rank", "_sim")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the
    #: rest).  ``callback`` is a bound method of another snapshotted
    #: object: the snapshot encodes it as (owner, name) and rebinds it on
    #: restore, never copies it raw.
    STATE_FIELDS = ("time", "seq", "callback", "args", "cancelled", "rank", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable,
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.rank = getattr(callback.__self__, "_rank", 0) if callback.__class__ is _MethodType else 0
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the timer from firing.  Safe to call more than once,
        and a no-op on a timer that has already fired (firing consumes
        the timer)."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled timers sitting in the heap do not
        # keep large object graphs (packets, connections) alive.
        self.callback = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancellation()

    @property
    def active(self) -> bool:
        """True while the timer is scheduled: not cancelled and not yet
        fired (a fired timer is consumed and reports inactive)."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"Timer(t={self.time:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """Discrete-event simulation core.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    1
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    #: Snapshot contract for checkpoint/fork: every attribute a clean state
    #: capture must copy, and nothing else (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "tie_break",
        "tie_break_seed",
        "_tie_rng",
        "now",
        "_heap",
        "_seq",
        "_ranks",
        "_events_processed",
        "_running",
        "_cancelled_in_heap",
        "_timers_cancelled",
        "_stale_pops",
        "_compactions",
    )

    def __init__(
        self,
        tie_break: Optional[str] = None,
        tie_break_seed: Optional[int] = None,
    ) -> None:
        if tie_break is None and _FORCED_TIE_BREAK is not None:
            tie_break, forced_seed = _FORCED_TIE_BREAK
            if tie_break_seed is None:
                tie_break_seed = forced_seed
        mode = tie_break or "fifo"
        if mode not in ("fifo", "random"):
            raise SimulationError(f"unknown tie_break mode: {mode!r}")
        self.tie_break = mode
        self.tie_break_seed = 0 if tie_break_seed is None else int(tie_break_seed)
        if mode == "random":
            # Imported here, not at module top: rng is a sibling leaf module
            # but the fifo path must stay import-light.
            from repro.sim.rng import RngRegistry

            self._tie_rng = RngRegistry(self.tie_break_seed).stream("tie-break")
        else:
            self._tie_rng = None
        self.now: float = 0.0
        # Heap entries: (time, rank, key, Timer) where key is the seq (fifo)
        # or a (random draw, seq) pair -- within one simulator the key type
        # is homogeneous, so tuple comparison stays at the C level.
        self._heap: list = []
        self._seq: int = 0
        #: Ranks handed out so far by next_rank(); 0 is the unowned rank.
        self._ranks: int = 0
        self._events_processed: int = 0
        self._running = False
        # Perf accounting (always-on: plain int bumps, read by repro.perf).
        self._cancelled_in_heap: int = 0
        self._timers_cancelled: int = 0
        self._stale_pops: int = 0
        self._compactions: int = 0
        probe = _probe.ACTIVE
        if probe is not None:
            probe.adopt(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def next_rank(self) -> int:
        """A new owner's rank: its construction index in this world.

        An object whose bound methods are scheduled calls this once, when
        it is built, and keeps the answer as ``_rank``; its same-instant
        events then run after those of every owner built before it.
        """
        self._ranks += 1
        return self._ranks

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        The heap push is :meth:`arm`'s, repeated here: going through
        :meth:`timer` and :meth:`arm` makes a schedule-and-run a quarter
        dearer, and even one shared push helper 5 %.  A non-negative
        delay from ``now`` can never land in the past, so only the delay
        needs validating.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        seq = self._seq + 1
        self._seq = seq
        time = self.now + delay
        timer = Timer(time, seq, callback, args, self)
        tie = self._tie_rng
        _heappush(self._heap, (time, timer.rank, seq if tie is None else (tie.random(), seq), timer))
        return timer

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        timer = self.timer(callback, *args)
        self.arm(timer, time)
        return timer

    def timer(self, callback: Callable, *args: Any) -> Timer:
        """An unarmed timer for ``callback(*args)``: :meth:`arm` arms it.

        An owner with one event pending at a time -- a link's FIFO head --
        keeps one timer and arms it again after each firing, instead of
        allocating one per event.
        """
        timer = Timer(self.now, 0, callback, args, self)
        timer.cancelled = True  # not pending: nothing to fire yet
        return timer

    def arm(self, timer: Timer, time: float) -> None:
        """Arm a timer that is not pending -- unarmed, or fired -- to fire
        at ``time``, with a new sequence number, under the key ``(time,
        owner rank, seq)``.  Every event but :meth:`schedule`'s enters the
        heap here.

        A pending or cancelled timer cannot be armed: its old heap entry
        would come back to life.
        """
        if not timer.cancelled or timer.callback is _noop:
            raise SimulationError(f"only an unarmed or fired timer can be armed: {timer!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self.now!r}"
            )
        seq = self._seq + 1
        self._seq = seq
        timer.time = time
        timer.seq = seq
        timer.cancelled = False
        tie = self._tie_rng
        _heappush(self._heap, (time, timer.rank, seq if tie is None else (tie.random(), seq), timer))

    # ------------------------------------------------------------------
    # Cancelled-entry bookkeeping
    # ------------------------------------------------------------------
    def _note_cancellation(self) -> None:
        """Called by :meth:`Timer.cancel`; compacts when dead entries win.

        Compaction rewrites the heap *in place* (slice assignment), so a
        ``run()`` loop holding a local alias to the heap list keeps seeing
        the live structure even when a callback cancels mid-run.
        """
        self._timers_cancelled += 1
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 >= len(heap)
        ):
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0
            self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled at
            exactly ``until`` are executed, and the clock is advanced to
            ``until`` when the queue drains (or only holds later events)
            before reaching it.  When ``max_events`` stops the run first,
            the clock stays at the last dispatched event so the pending
            backlog is still in the future.
        max_events:
            Safety valve for tests and checkpointing drivers; stop after
            this many events.

        Returns
        -------
        int
            Number of (non-cancelled) events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        pop = _heappop
        # Bound once per run() call: arming or disarming a tool mid-run
        # is not supported.  Only a probe that brackets dispatch needs the
        # second loop; adopt-only and protocol-point subscribers do not.
        probe = _probe.ACTIVE
        if probe is not None and not probe.brackets_dispatch:
            probe = None
        # Normalized stop conditions: one float compare and one int
        # compare per event instead of two None tests.  Counting up by one
        # from zero makes ``executed == budget`` equivalent to the
        # ``executed >= max_events`` it replaces.
        limit = float("inf") if until is None else until
        budget = -1 if max_events is None else max_events
        if probe is not None:
            probe.run_begin(self)
        try:
            if probe is None:
                # Bare loop: the common per-packet path.  Kept
                # branch-identical to the probed loop below -- any
                # semantic edit must be applied to both.
                while heap:
                    entry = heap[0]
                    timer = entry[3]
                    if timer.cancelled:
                        pop(heap)
                        self._stale_pops += 1
                        self._cancelled_in_heap -= 1
                        continue
                    time = entry[0]
                    if time > limit or executed == budget:
                        break
                    pop(heap)
                    self.now = time
                    timer.cancelled = True  # consumed; cancel() after firing is a no-op
                    timer.callback(*timer.args)
                    executed += 1
            else:
                while heap:
                    entry = heap[0]
                    timer = entry[3]
                    if timer.cancelled:
                        pop(heap)
                        self._stale_pops += 1
                        self._cancelled_in_heap -= 1
                        continue
                    time = entry[0]
                    if time > limit or executed == budget:
                        break
                    pop(heap)
                    probe.event_begin(self, time, timer)
                    self.now = time
                    timer.cancelled = True  # consumed; cancel() after firing is a no-op
                    try:
                        timer.callback(*timer.args)
                    finally:
                        probe.event_end(self)
                    executed += 1
        finally:
            self._running = False
            self._events_processed += executed
            if probe is not None:
                probe.run_end(self)
        if until is not None and self.now < until:
            # Fast-forward only when nothing is pending at or before
            # ``until``: a budget-stopped run must not leave events in the
            # past (schedule_at would raise and dispatch monotonicity in
            # the sanitizer would be violated on the next call).
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until
        return executed

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain."""
        return self.run(max_events=1) == 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return sum(1 for *_, t in self._heap if not t.cancelled)

    @property
    def events_processed(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_processed

    @property
    def timers_scheduled(self) -> int:
        """Total timers ever pushed onto this simulator's heap."""
        return self._seq

    @property
    def timers_cancelled(self) -> int:
        """Live timers cancelled before firing (fired-then-cancelled
        no-ops are not counted)."""
        return self._timers_cancelled

    @property
    def stale_pops(self) -> int:
        """Cancelled heap entries popped and skipped by the event loop --
        the dead weight the heap dragged through sifts before shedding it."""
        return self._stale_pops

    @property
    def heap_compactions(self) -> int:
        """Times the heap was rebuilt to evict cancelled entries."""
        return self._compactions

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries currently sitting in the heap."""
        return self._cancelled_in_heap

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            self._stale_pops += 1
            self._cancelled_in_heap -= 1
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
