"""Event primitives for the discrete-event simulation engine.

The design follows the classic process-interaction style (as popularised by
SimPy): an :class:`Event` is a one-shot occurrence with a value, a
:class:`Process` wraps a generator that yields events, and composite
conditions (:class:`AllOf` / :class:`AnyOf`) let a process wait on several
events at once.

Everything is deterministic: ties in time are broken by (priority, sequence
number), so two runs of the same model produce identical timelines.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

#: Scheduling priorities.  URGENT events (process initialisation, condition
#: resolution) run before NORMAL events at the same timestamp.
URGENT = 0
NORMAL = 1

_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class SimulationError(Exception):
    """Base class for errors raised by the simulation core."""


class Interrupt(SimulationError):
    """Raised inside a process that was interrupted by another process.

    The interrupting party supplies ``cause`` which the interrupted process
    can inspect to decide how to recover.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* once it has been given a
    value (and is sitting in the scheduler queue), and *processed* once its
    callbacks have run.  Processes yield events to wait on them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    #: Only a :class:`Timer` can be cancelled (its slot shadows this
    #: default), so the engine's pop loop tests any event with one read.
    _cancelled = False

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = _PENDING
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once all callbacks have been invoked."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception instance if it failed)."""
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if priority == NORMAL:
            lane = self.env._normal
        elif priority == URGENT:
            lane = self.env._urgent
        else:
            raise ValueError(f"unknown priority {priority!r}")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        lane.append(self)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event;
        if nobody waits, the engine raises it at processing time (unless the
        event was :meth:`defused <defuse>`).
        """
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if priority == NORMAL:
            lane = self.env._normal
        elif priority == URGENT:
            lane = self.env._urgent
        else:
            raise ValueError(f"unknown priority {priority!r}")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        lane.append(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine will not re-raise."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        at = env.now + delay
        if at == env.now:
            env._normal.append(self)
        else:
            env._eid = eid = env._eid + 1
            heappush(env._queue, (at, NORMAL, eid, self))


class Timer(Event):
    """A cancellable scheduled callback.

    Unlike :class:`Timeout`, a Timer carries its own callback — the first
    entry of its ``callbacks``, so the engine dispatches it like any other
    event — and can be *cancelled* before it fires: its queue entry stays
    where it is (lazy deletion — no O(n) queue surgery) and the engine
    skips it unprocessed.  This replaces generation-counter tricks where
    consumers had to detect their own stale wakeups by hand.

    Timers are scheduling primitives, not synchronisation points: processes
    should yield :class:`Timeout`/:class:`Event`, not Timers (a cancelled
    Timer never fires its waiters).
    """

    __slots__ = ("at", "_cancelled", "_in_lane")

    def __init__(
        self,
        env: "Environment",
        delay: float,
        callback: Callable[["Timer"], None],
        at: Optional[float] = None,
    ):
        """With ``at`` given, the timer fires at exactly that absolute
        time — ``env.now + (at - env.now)`` can differ from ``at`` by an
        ulp, and a fabric deadline re-armed from a later wake-up must hit
        the *same* float the prediction computed."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = [callback]
        self._value = None
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self._cancelled = False
        if at is None:
            at = env.now + delay
        #: Absolute firing time (for introspection and staleness checks).
        self.at = at
        if at == env.now:
            self._in_lane = True
            env._normal.append(self)
        else:
            self._in_lane = False
            env._eid = eid = env._eid + 1
            heappush(env._queue, (at, NORMAL, eid, self))

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._state == _PROCESSED and not self._cancelled

    def cancel(self) -> None:
        """Deactivate the timer; safe to call repeatedly.  After firing
        (or from inside its own callback) it is a no-op: a fired timer
        stays fired."""
        if self._cancelled or self._state == _PROCESSED:
            return
        self._cancelled = True
        self.callbacks = []  # release the callback; the queue entry is skipped
        if not self._in_lane:
            self.env._note_timer_cancelled()


class Initialize(Event):
    """Internal event used to start a freshly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        env._urgent.append(self)


class Process(Event):
    """Wraps a generator; the process itself is an event that triggers when
    the generator returns (value = return value) or raises (failure)."""

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        #: ``self._resume`` bound once: a rank process parks on an event
        #: at every step, and each park appends this callback.
        self._resume_cb = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event
        itself is unaffected and may trigger later, unobserved).
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated; cannot interrupt")
        if self._target is None and self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event._state = _TRIGGERED
        # Run before anything else at this timestamp.
        interrupt_event.callbacks = [self._resume_interrupt]
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # terminated in the meantime: drop silently
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s value (or exception)."""
        env = self.env
        env._active_process = self
        self._target = None
        tracer = env.tracer
        if tracer.enabled:
            tracer.process_resume(env.now, self.name)
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event._defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._ok = True
            self._value = stop.value
            self._state = _TRIGGERED
            env.schedule(self, priority=NORMAL)
            return
        except BaseException as exc:
            env._active_process = None
            self._ok = False
            self._value = exc
            self._state = _TRIGGERED
            env.schedule(self, priority=NORMAL)
            return
        env._active_process = None

        if not isinstance(next_target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_target!r}"
            )
        if next_target.callbacks is not None:
            # Target not yet processed: park until it fires.
            next_target.callbacks.append(self._resume_cb)
            self._target = next_target
            if tracer.enabled:
                tracer.process_suspend(
                    env.now, self.name, type(next_target).__name__
                )
        else:
            # Target already processed: resume immediately (still via the
            # queue, so ordering stays deterministic).
            relay = Event(self.env)
            relay._ok = next_target._ok
            relay._value = next_target._value
            relay._defused = True
            relay._state = _TRIGGERED
            relay.callbacks = [self._resume_cb]
            env.schedule(relay, priority=URGENT)
            self._target = relay


class ConditionValue:
    """Ordered mapping of events to values for triggered condition events."""

    __slots__ = ("events",)

    def __init__(self, events: List[Event]):
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event over a set of sub-events.

    The condition holds once ``needed`` sub-events have fired (``None``
    means all of them): ``len(events)`` gives AllOf semantics, 1 gives
    AnyOf.  A failing sub-event fails the whole condition immediately.
    Each sub-event's firing costs one counter bump and one comparison.
    """

    __slots__ = ("_events", "_count", "_needed")

    def __init__(
        self,
        env: "Environment",
        events: Iterable[Event],
        needed: Optional[int] = None,
    ):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        self._defused = False
        self._events = list(events)
        self._count = 0
        total = len(self._events)
        self._needed = total if needed is None else min(needed, total)
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events of a condition must share an environment")
        if self._needed == 0:
            # Vacuously true (an empty set, mirroring SimPy).
            self.succeed(ConditionValue(self._fired()))
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
                if self._state != _PENDING:
                    break
            else:
                event.callbacks.append(self._check)

    def _fired(self) -> List[Event]:
        """The sub-events processed so far, in list order."""
        if self._count >= len(self._events):
            # Every sub-event's check ran, so all of them are processed.
            return self._events
        return [e for e in self._events if e.callbacks is None]

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value, priority=URGENT)
        elif self._count >= self._needed:
            self.succeed(ConditionValue(self._fired()), priority=URGENT)


class AllOf(Condition):
    """Event that triggers once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events)


class AnyOf(Condition):
    """Event that triggers once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, needed=1)
