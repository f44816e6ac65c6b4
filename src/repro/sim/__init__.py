"""Deterministic discrete-event simulation core (SimPy-style, from scratch).

Public surface::

    env = Environment()
    env.process(gen)          # start a coroutine process
    yield env.timeout(1e-6)   # inside a process
    env.run(until=...)

plus the instrumentation layer (:class:`Tracer` and friends) and the
:class:`SimSession` context object that owns a whole simulation stack
(env + cluster + fabric + power model + tracer).
"""

from .engine import EmptySchedule, Environment, Infinity
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    Timer,
)
from .trace import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    TraceRecord,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Environment",
    "Event",
    "Infinity",
    "Interrupt",
    "JsonlTracer",
    "NULL_TRACER",
    "NullTracer",
    "Process",
    "RecordingTracer",
    "SessionConfigError",
    "SimSession",
    "SimulationError",
    "Timeout",
    "Timer",
    "TraceRecord",
    "Tracer",
]

_LAZY = {"SimSession", "SessionConfigError", "check_session_specs"}


def __getattr__(name):
    # SimSession pulls in cluster/network/power, which themselves import
    # repro.sim — resolve it lazily to keep the core import-cycle free.
    if name in _LAZY:
        from . import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
