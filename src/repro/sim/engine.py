"""Deterministic discrete-event simulation engine.

The engine owns simulated time (integer microseconds) and one binary
heap of pending events.  The queue stays shallow: across every
experiment at most a few dozen events are pending at once, so the
heap's O(log n) push and pop are a handful of C-level comparisons.

Events scheduled for the same instant fire in scheduling order (a
monotonically increasing sequence number breaks ties), so a run is a
pure function of the initial configuration and the RNG seed.

**Packed events.**  The heap holds ``(time, seq, kind, target, args)``
tuples.  Tuple comparison runs in C and the unique sequence number
guarantees comparison never reaches the non-comparable tail.  Four
kinds exist: plain calls (:meth:`Engine.call_at` /
:meth:`Engine.call_after` — fire-and-forget, no handle allocated),
their daemon variants, cancellable :class:`EventHandle` events
(:meth:`Engine.at` / :meth:`Engine.after`), and
:class:`PeriodicTimer` occurrences, which reschedule without
allocating a handle per period.

**Daemon events.**  Periodic infrastructure (clock ticks, writeback,
memory rebalancing) reschedules itself forever, which would keep
:meth:`Engine.run` from ever returning.  Such events are marked
``daemon=True``: like daemon threads, they do not keep the simulation
alive.  ``run()`` with no deadline returns once only daemon events
remain.

**Idle fast-forward.**  A periodic timer created with a ``skip_fn``
may have idle stretches elided: when the registered idle probe reports
no runnable work and the next occurrence lands strictly before every
other pending event, the engine calls ``skip_fn(k)`` once in place of
``k`` consecutive firings and jumps the occurrence past the next real
event.  ``skip_fn(k)`` must reproduce exactly the state changes ``k``
idle firings would have made; under that contract the journal, the
event count returned by :meth:`run`, and all same-instant orderings
are bit-identical with and without fast-forward (elision never crosses
or touches a pending event's timestamp, so no event's relative order
can change).  Fast-forward disables itself whenever observability
hooks need every event: under a SIMSAN sanitizer or a ``max_events``
budget the engine fires each occurrence individually.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: Whether new engines fast-forward idle timers.  The differential
#: test suite flips this to run whole experiments without fast-forward
#: and prove the journals identical; production code leaves it alone.
DEFAULT_FAST_FORWARD = True

# Event kinds, inlined as constants in the dispatch loops.
_K_CALL = 0      # fire-and-forget call, non-daemon
_K_CALL_D = 1    # fire-and-forget call, daemon
_K_HANDLE = 2    # cancellable EventHandle
_K_TIMER = 3     # PeriodicTimer occurrence


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (e.g. scheduling in the past)."""


class EventHandle:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "daemon", "_engine")

    def __init__(
        self,
        time: int,
        fn: Callable[..., None],
        args: tuple,
        daemon: bool,
        engine: "Engine",
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.daemon = daemon
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent.

        Cancelling after the event has already fired is a no-op; the
        live-event count was settled when the event ran.
        """
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if not self.daemon:
                self._engine._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.time} {name} {state}>"


class Engine:
    """The simulation clock and event loop.

    Parameters
    ----------
    seed:
        Seed for the engine-owned :class:`random.Random`.  Every source
        of randomness in a simulation must draw from :attr:`rng` (or a
        stream forked from it via :meth:`fork_rng`) so runs replay
        exactly.

    Idle fast-forward follows :data:`DEFAULT_FAST_FORWARD` as it
    stands when the engine is built.
    """

    __slots__ = (
        "_now", "_seq", "_queue", "_live", "rng", "_seed", "_running",
        "_san", "_idle", "_ff",
    )

    def __init__(self, seed: int = 0):
        self._now = 0
        self._seq = 0
        #: The pending entries, a heap ordered by (time, seq).
        self._queue: List[Tuple[int, int, int, Any, Any]] = []
        #: Count of pending non-daemon events; run() without a deadline
        #: returns when this reaches zero.
        self._live = 0
        self.rng = random.Random(seed)
        self._seed = seed
        self._running = False
        #: Post-event hook (the SIMSAN sanitizer).  None keeps the
        #: dispatch loop on its branch-free fast path.
        self._san: Optional[Callable[[], None]] = None
        #: Idle probe: True means no component has runnable work, so
        #: skip-capable timers may fast-forward.  None disables.
        self._idle: Optional[Callable[[], bool]] = None
        self._ff = DEFAULT_FAST_FORWARD

    # --- time ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def seed(self) -> int:
        """The seed this engine was constructed with."""
        return self._seed

    def fork_rng(self, name: str) -> random.Random:
        """Create an independent, deterministic RNG stream.

        The stream depends only on the engine seed and ``name``, so
        adding a new consumer of randomness does not perturb existing
        streams.
        """
        return random.Random(f"{self._seed}/{name}")

    # --- queue internals ---------------------------------------------------

    def _push(self, entry: Tuple[int, int, int, Any, Any]) -> None:
        """File an entry in the queue."""
        # entry is a (time, seq, ...) tuple; seq is unique, so
        # comparison never reaches the payload.
        heappush(self._queue, entry)  # simlint: disable=SL202

    def _peek_time(self) -> Optional[int]:
        """Time of the next pending entry (dead ones included), or None."""
        queue = self._queue
        return queue[0][0] if queue else None

    # --- scheduling --------------------------------------------------------

    def at(
        self, time: int, fn: Callable[..., None], *args: Any, daemon: bool = False
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, fn, args, daemon, self)
        if not daemon:
            self._live += 1
        self._push((time, seq, _K_HANDLE, handle, None))
        return handle

    def after(
        self, delay: int, fn: Callable[..., None], *args: Any, daemon: bool = False
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Open-coded at(): delay >= 0 means the time can never be in
        # the past, and this is the most common way events are made.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, fn, args, daemon, self)
        if not daemon:
            self._live += 1
        self._push((time, seq, _K_HANDLE, handle, None))
        return handle

    def call_at(
        self, time: int, fn: Callable[..., None], *args: Any, daemon: bool = False
    ) -> None:
        """Schedule ``fn(*args)`` at ``time`` with no cancellation handle.

        The packed fast path for the many schedule sites that never
        cancel: no :class:`EventHandle` is allocated.  Consumes one
        sequence number, exactly like :meth:`at`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        if daemon:
            self._push((time, seq, _K_CALL_D, fn, args))
        else:
            self._live += 1
            self._push((time, seq, _K_CALL, fn, args))

    def call_after(
        self, delay: int, fn: Callable[..., None], *args: Any, daemon: bool = False
    ) -> None:
        """Schedule ``fn(*args)`` after ``delay`` with no handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        if daemon:
            self._push((time, seq, _K_CALL_D, fn, args))
        else:
            self._live += 1
            self._push((time, seq, _K_CALL, fn, args))

    def every(
        self,
        period: int,
        fn: Callable[..., None],
        *args: Any,
        start: Optional[int] = None,
        daemon: bool = True,
        skip_fn: Optional[Callable[[int], None]] = None,
    ) -> "PeriodicTimer":
        """Run ``fn(*args)`` every ``period`` microseconds until stopped.

        Periodic timers default to daemon events: they do not keep
        :meth:`run` alive once all real work has drained.

        ``skip_fn(k)`` opts the timer into idle fast-forward; it must
        replay the exact state changes ``k`` consecutive idle firings
        of ``fn`` would make (see the module docstring for the
        determinism contract).
        """
        if period <= 0:
            raise SimulationError(f"non-positive period {period}")
        timer = PeriodicTimer(self, period, fn, args, daemon, skip_fn)
        timer.start(self._now + period if start is None else start)
        return timer

    # --- execution ---------------------------------------------------------

    def set_sanitizer(self, hook: Optional[Callable[[], None]]) -> None:
        """Install (or remove, with None) a hook run after every event.

        Used by :mod:`repro.sanitizer` to check invariants at event
        granularity.  With no hook installed, the dispatch loop stays
        on its branch-free fast path.  A sanitizer also suspends idle
        fast-forward so the hook observes every timer occurrence.
        """
        self._san = hook

    def set_idle_probe(self, probe: Optional[Callable[[], bool]]) -> None:
        """Install the probe that authorises idle fast-forward.

        ``probe()`` must return True only when no component has
        runnable work — i.e. every pending state change is already an
        event in this queue.  Without a probe, skip-capable timers
        fire every occurrence.
        """
        self._idle = probe

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty.

        One pass of :meth:`run` bounded at the head entry's time with a
        one-event budget, so daemon events run, the sanitizer fires and
        nothing is fast-forwarded.  A cancelled or stopped head entry is
        drained without moving the clock, and the next one is tried.
        """
        while True:
            time = self._peek_time()
            if time is None:
                return False
            now = self._now
            if self.run(until=time, max_events=1):
                return True
            self._now = now

    def _fast_forward(self, timer: "PeriodicTimer", time: int,
                      until: Optional[int]) -> int:
        """Elide an idle skip-capable timer's firings; return how many.

        Called with the timer's occurrence at ``time`` already popped.
        When the idle probe allows it, ``timer._skip_fn(k)`` stands in
        for the ``k`` occurrences that fit strictly before the next
        pending event (and at or before ``until``), the timer is re-filed
        on its period grid, and ``k`` is returned.  Returns 0 when the
        occurrence must fire normally.
        """
        probe = self._idle
        if probe is None or not probe():  # simlint: dynamic=engine-dispatch
            return 0
        bound = self._peek_time()
        if until is not None and (bound is None or bound > until + 1):
            bound = until + 1
        if bound is None or bound <= time:
            return 0
        period = timer.period
        k = (bound - time + period - 1) // period
        timer._skip_fn(k)
        seq = self._seq
        self._seq = seq + 1
        self._push((time + k * period, seq, _K_TIMER, timer, None))
        return k

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        With no ``until``, runs until no non-daemon events remain (or
        ``max_events`` fire).  With ``until``, runs all events —
        daemons included — up to and including that time, then sets the
        clock to ``until``.  Returns the number of events executed
        (fast-forwarded timer occurrences count as if each had fired).
        """
        if self._running:
            raise SimulationError("engine is not re-entrant")
        self._running = True
        executed = 0
        # The queue list is never rebound, so it can live in a local;
        # _live and _now cannot — callbacks mutate them through self.
        queue = self._queue
        pop = heappop
        try:
            if until is None and max_events is None and self._san is None:
                # The common case, kept free of per-event branch tests.
                while self._live and queue:
                    time, _seq, kind, target, args = pop(queue)
                    if kind == _K_CALL:
                        self._now = time
                        self._live -= 1
                        target(*args)  # simlint: dynamic=engine-dispatch
                        executed += 1
                    elif kind == _K_TIMER:
                        if target._stopped:
                            continue
                        if target._skip_fn is not None and self._ff:
                            k = self._fast_forward(target, time, None)
                            if k:
                                executed += k
                                continue
                        self._now = time
                        target._dispatch(time)
                        executed += 1
                    elif kind == _K_HANDLE:
                        if target.cancelled:
                            continue
                        self._now = time
                        target.fired = True
                        if not target.daemon:
                            self._live -= 1
                        target.fn(*target.args)  # simlint: dynamic=engine-dispatch
                        executed += 1
                    else:  # _K_CALL_D
                        self._now = time
                        target(*args)  # simlint: dynamic=engine-dispatch
                        executed += 1
                return executed
            ff = self._ff and max_events is None and self._san is None
            while True:
                if max_events is not None and executed >= max_events:
                    break
                if until is None and self._live == 0:
                    break
                if not queue:
                    break
                entry = queue[0]
                time = entry[0]
                kind = entry[2]
                # Dead entries are drained even past the deadline.
                if kind == _K_HANDLE and entry[3].cancelled:
                    pop(queue)
                    continue
                if kind == _K_TIMER and entry[3]._stopped:
                    pop(queue)
                    continue
                if until is not None and time > until:
                    break
                pop(queue)
                target = entry[3]
                if kind == _K_TIMER:
                    if ff and target._skip_fn is not None:
                        k = self._fast_forward(target, time, until)
                        if k:
                            executed += k
                            continue
                    self._now = time
                    target._dispatch(time)
                elif kind == _K_HANDLE:
                    self._now = time
                    target.fired = True
                    if not target.daemon:
                        self._live -= 1
                    target.fn(*target.args)  # simlint: dynamic=engine-dispatch
                else:
                    self._now = time
                    if kind == _K_CALL:
                        self._live -= 1
                    target(*entry[4])  # simlint: dynamic=engine-dispatch
                if self._san is not None:
                    self._san()  # simlint: dynamic=engine-dispatch
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return executed


class PeriodicTimer:
    """A repeating event; reschedules itself after each firing.

    Occurrences are packed queue entries carrying the timer itself —
    no per-period handle allocation.  The engine dispatches them via
    :meth:`_dispatch`, which fires the callback *first* and then files
    the next occurrence, so callbacks' own scheduling wins the
    same-instant tie against the reschedule.
    """

    __slots__ = (
        "_engine", "period", "daemon", "_fn", "_args",
        "_stopped", "_scheduled", "_skip_fn",
    )

    def __init__(
        self,
        engine: Engine,
        period: int,
        fn: Callable[..., None],
        args: tuple,
        daemon: bool = True,
        skip_fn: Optional[Callable[[int], None]] = None,
    ):
        self._engine = engine
        self.period = period
        self.daemon = daemon
        self._fn = fn
        self._args = args
        self._stopped = False
        self._scheduled = False
        self._skip_fn = skip_fn

    def start(self, first_time: int) -> None:
        if self._stopped:
            raise SimulationError("timer already stopped")
        eng = self._engine
        if first_time < eng._now:
            raise SimulationError(
                f"cannot schedule event at {first_time} before now ({eng._now})"
            )
        seq = eng._seq
        eng._seq = seq + 1
        if not self.daemon:
            eng._live += 1
        eng._push((first_time, seq, _K_TIMER, self, None))
        self._scheduled = True

    def _dispatch(self, time: int) -> None:
        """Fire one occurrence (engine-internal; clock already set)."""
        eng = self._engine
        self._scheduled = False
        if not self.daemon:
            eng._live -= 1
        self._fn(*self._args)
        if not self._stopped:
            seq = eng._seq
            eng._seq = seq + 1
            if not self.daemon:
                eng._live += 1
            eng._push((time + self.period, seq, _K_TIMER, self, None))
            self._scheduled = True

    def stop(self) -> None:
        """Stop the timer.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self._scheduled:
            self._scheduled = False
            if not self.daemon:
                self._engine._live -= 1
