"""The discrete-event simulation engine.

:class:`Environment` owns the clock and the event queue.  Model code is
written as generator functions that ``yield`` events; see
:mod:`repro.sim.events` for the event types.

Events run in (time, priority, sequence) order: a heap holds the later
entries, and one FIFO lane per priority the many pushed for ``now``
(see :meth:`Environment.step`).

Example
-------
>>> env = Environment()
>>> def hello(env, out):
...     yield env.timeout(3.0)
...     out.append(env.now)
>>> out = []
>>> _ = env.process(hello(env, out))
>>> env.run()
>>> out
[3.0]
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from .events import (
    _PROCESSED,
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Timeout,
    Timer,
)
from .trace import NULL_TRACER, Tracer

Infinity = float("inf")


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(SimulationError):
    """Internal: unwinds :meth:`Environment.run` when the ``until`` event fires."""


class Environment:
    """Holds simulation time and the pending-event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds by convention
        throughout this package).
    tracer:
        Instrumentation sink for kernel events (process resume/suspend).
        Defaults to the zero-overhead :data:`~repro.sim.trace.NULL_TRACER`.
    """

    #: Compact the heap only once cancelled entries could dominate it:
    #: when they exceed this fraction of the queue *and* the floor below.
    COMPACT_FRACTION = 0.5
    #: Minimum cancelled entries before compaction is worth an O(n) pass
    #: (tiny heaps never compact — head purging already covers them).
    COMPACT_MIN = 64

    def __init__(self, initial_time: float = 0.0, tracer: Optional[Tracer] = None):
        #: Current simulation time (written only by the event loop).
        self.now = float(initial_time)
        #: Entries later than ``now``: (time, priority, sequence, event).
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        #: Entries at ``now``, one FIFO lane per priority (see :meth:`step`).
        self._urgent: Deque[Event] = deque()
        self._normal: Deque[Event] = deque()
        self._active_process: Optional[Process] = None
        self.tracer: Tracer = NULL_TRACER if tracer is None else tracer
        #: Events popped off the queue so far — the kernel's work metric,
        #: reported by the bench self-profile.
        self.events_processed = 0
        #: Cancelled Timer entries still buried in the heap.
        self._cancelled_pending = 0
        #: Full-heap compactions performed (observability/benchmarks).
        self.compactions = 0

    # -- clock & introspection -------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between steps)."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        self._purge_cancelled()
        if self._urgent or self._normal:
            return self.now
        return self._queue[0][0] if self._queue else Infinity

    def _purge_cancelled(self) -> None:
        """Drop cancelled :class:`Timer` entries from the heads of the
        lanes and of the heap.

        Lazy deletion leaves cancelled timers queued; purging them
        before they are *observed* means a dead timer never advances the
        clock, never counts as a processed event, and — critically for
        ``run(until=T)`` — never extends a bounded run past the horizon
        just to process a no-op (a governor timeout armed behind a wait
        that ended early, a fabric completion estimate that was re-rated).
        """
        for lane in (self._urgent, self._normal):
            while lane and lane[0]._cancelled:
                lane.popleft()
        queue = self._queue
        while queue:
            if queue[0][3]._cancelled:
                heappop(queue)
                if self._cancelled_pending > 0:
                    self._cancelled_pending -= 1
            else:
                return

    def _note_timer_cancelled(self) -> None:
        """A live heap entry just became garbage (Timer.cancel hook).

        Head purging alone only reclaims cancelled timers once they reach
        the front, so a workload that arms far-out timers and cancels
        them early (the governor under heavy churn, re-rated fabric
        estimates) can grow the heap well past its live size — and every
        push/pop pays the log of the *inflated* size.  Once cancelled
        entries pass a fraction of the whole queue (was: never), rebuild
        it without them in one O(n) pass, amortised O(1) per cancel.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACT_MIN
            and self._cancelled_pending >= len(self._queue) * self.COMPACT_FRACTION
        ):
            self._queue = [
                entry for entry in self._queue if not entry[3]._cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0
            self.compactions += 1

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Enqueue ``event`` to be processed ``delay`` after the current time.

        ``priority`` is :data:`~repro.sim.events.URGENT` or
        :data:`~repro.sim.events.NORMAL`: each has one lane at ``now``,
        so any other value would dispatch out of order."""
        if priority != NORMAL and priority != URGENT:
            raise ValueError(f"unknown priority {priority!r}")
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        at = self.now + delay
        if at == self.now:
            (self._normal if priority == NORMAL else self._urgent).append(event)
        else:
            self._eid += 1
            heapq.heappush(self._queue, (at, priority, self._eid, event))

    def call_after(self, delay: float, callback: Callable[[Timer], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` from now; returns a
        cancellable :class:`~repro.sim.events.Timer` handle."""
        return Timer(self, delay, callback)

    def call_at(self, time: float, callback: Callable[[Timer], None]) -> Timer:
        """Schedule ``callback`` at absolute ``time`` (must not be in the
        past); returns a cancellable handle.  The timer fires at exactly
        ``time``: a deadline computed once and re-armed from a later
        wake-up hits the same float either way."""
        if time < self.now:
            raise ValueError(f"call_at({time}) lies in the past (now={self.now})")
        return Timer(self, time - self.now, callback, at=time)

    def defer(self, callback: Callable[[Timer], None]) -> Timer:
        """Run ``callback`` after the events already queued at the current
        timestamp (a zero-delay timer; returns its cancellable handle).

        This is the batching primitive behind the vector fabric kernel:
        every flow admitted at one timestamp lands in a pending list and a
        single deferred flush re-rates them together, so one wave of n
        admissions costs one water-filling pass instead of n.
        """
        return Timer(self, 0.0, callback)

    def step(self) -> None:
        """Process the single next event; raises :class:`EmptySchedule` if none.

        Events are dispatched in (time, priority, sequence) order.  An
        event pushed for ``now`` goes to its priority's FIFO lane, not
        the heap, and the next event is, in this order: a heap entry at
        ``now`` with URGENT priority, the URGENT lane's head, a heap
        entry at ``now`` with NORMAL priority, the NORMAL lane's head,
        and only then the heap's head, which advances the clock.  That
        is the heap order exactly: every heap entry at ``now`` was pushed
        before the clock reached ``now``, so its sequence number is
        below that of every lane entry of its priority.

        Cancelled timers met on the way are dropped exactly as
        :meth:`_purge_cancelled` drops them: they neither advance the
        clock nor count as processed events.  Every other event goes
        through the one dispatch below (a :class:`Timer`'s callback is
        the first of its ``callbacks``); a failed event nobody defused
        is raised once its callbacks have run.
        """
        queue = self._queue
        urgent = self._urgent
        while True:
            if queue and queue[0][0] == self.now and (
                queue[0][1] == URGENT or not urgent
            ):
                event = heappop(queue)[3]
                if event._cancelled:
                    if self._cancelled_pending > 0:
                        self._cancelled_pending -= 1
                    continue
                break
            if urgent:
                event = urgent.popleft()
            elif self._normal:
                event = self._normal.popleft()
            else:
                try:
                    now, _, _, event = heappop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                if event._cancelled:
                    if self._cancelled_pending > 0:
                        self._cancelled_pending -= 1
                    continue
                self.now = now
                break
            if not event._cancelled:
                break
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._state = _PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        * ``until=None`` — drain the queue completely.
        * ``until=<number>`` — process every event scheduled at or before the
          horizon, then advance the clock *to* the horizon (even when the
          queue drains early, so ``env.now == until`` afterwards).
        * ``until=<Event>`` — run until that event is processed; its value
          is returned, or its exception raised if it failed and nobody
          defused it (a crashed process awaited this way raises).

        Every event goes through :meth:`step`.
        """
        step = self.step
        if until is None:
            try:
                while True:
                    step()
            except EmptySchedule:
                return None
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is not None:  # not processed yet
                stop.callbacks.append(_stop_simulation)
                try:
                    while True:
                        step()
                except EmptySchedule:
                    raise SimulationError(
                        "run() ended before the awaited event fired"
                    ) from None
                except StopSimulation:
                    pass
            if not stop._ok and not stop._defused:
                raise stop._value
            return stop._value
        horizon = float(until)
        if horizon < self.now:
            raise ValueError(f"until={horizon} lies in the past (now={self.now})")
        peek = self.peek
        while True:
            next_time = peek()
            if next_time > horizon or next_time == Infinity:
                break
            step()
        self.now = horizon
        return None

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a process from ``generator`` and return its Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires once any of ``events`` has fired."""
        return AnyOf(self, events)


def _stop_simulation(event: Event) -> None:
    raise StopSimulation()


class _CoalescedSlot:
    """Cancellable handle for one callback armed via :class:`CoalescedTimers`.

    Mirrors the :class:`~repro.sim.events.Timer` handle contract —
    ``cancel()`` is idempotent and safe after firing — but cancelling a
    slot never touches the heap unless it was the group's last live
    member.  A fired or cancelled slot drops its group and callback, so
    the slot ↔ group cycle never outlives the countdown.
    """

    __slots__ = ("_callback", "_group", "_cancelled", "_fired")

    def __init__(self, callback: Callable[["_CoalescedSlot"], None]):
        self._callback = callback
        self._group: Optional[_TimerGroup] = None
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    def cancel(self) -> None:
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        self._callback = None
        group, self._group = self._group, None
        if group is not None:
            group.live -= 1
            if group.live == 0:
                if group.timer is not None:
                    group.timer.cancel()
                group.slots = group.timer = None


class _TimerGroup:
    """All slots sharing one (arm timestamp, deadline): one heap Timer.

    Once the group fires, or its last live slot is cancelled, it drops
    its slots and its timer (whose callback is the group's bound
    ``_fire``)."""

    __slots__ = ("slots", "live", "timer")

    def __init__(self, slots: List[_CoalescedSlot]):
        self.slots: Optional[List[_CoalescedSlot]] = slots
        self.live = len(slots)
        self.timer: Optional[Timer] = None

    def _fire(self, _timer: Timer) -> None:
        slots, self.slots, self.timer = self.slots, None, None
        for slot in slots:
            if not slot._cancelled:
                slot._fired = True
                callback, slot._callback, slot._group = slot._callback, None, None
                callback(slot)


class CoalescedTimers:
    """Batch same-deadline timer arms into one heap transaction.

    A wave of same-timestamp FSM transitions (the governor arming a
    θ-countdown per rank entering a wait) used to push one heap entry per
    rank.  Arms instead land in a pending map keyed by deadline; a single
    :meth:`Environment.defer` flush — the same batching primitive the
    vector fabric kernel uses for re-rates — converts each deadline's
    surviving slots into *one* :class:`Timer`, fired in arm order.

    Cancelling a slot before the flush costs nothing; after the flush it
    decrements the group's live count and only cancels the underlying
    heap timer when the whole group is dead, so the common
    arm-then-cancel governor churn stays O(1) per slot.
    """

    __slots__ = ("env", "_pending", "_flush_armed", "slots_armed",
                 "heap_timers")

    def __init__(self, env: Environment):
        self.env = env
        self._pending: dict = {}
        self._flush_armed = False
        #: Telemetry: slots armed / underlying heap timers created.
        self.slots_armed = 0
        self.heap_timers = 0

    def call_after(self, delay: float,
                   callback: Callable[[_CoalescedSlot], None]) -> _CoalescedSlot:
        """Arm ``callback`` ``delay`` from now; returns a cancellable slot."""
        return self.call_at(self.env.now + delay, callback)

    def call_at(self, time: float,
                callback: Callable[[_CoalescedSlot], None]) -> _CoalescedSlot:
        if time < self.env.now:
            raise ValueError(
                f"call_at({time}) lies in the past (now={self.env.now})")
        slot = _CoalescedSlot(callback)
        bucket = self._pending.get(time)
        if bucket is None:
            self._pending[time] = [slot]
        else:
            bucket.append(slot)
        if not self._flush_armed:
            self._flush_armed = True
            self.env.defer(self._flush)
        self.slots_armed += 1
        return slot

    def _flush(self, _timer: Timer) -> None:
        """Convert this timestamp's pending arms into one Timer each."""
        self._flush_armed = False
        pending = self._pending
        self._pending = {}
        for deadline, slots in pending.items():
            live = [slot for slot in slots if not slot._cancelled]
            if not live:
                continue
            group = _TimerGroup(live)
            for slot in live:
                slot._group = group
            group.timer = self.env.call_at(deadline, group._fire)
            self.heap_timers += 1
