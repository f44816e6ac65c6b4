"""Trace hook bus: typed instrumentation events from the simulation kernel.

Every layer of the simulator (engine, fabric, cores, collectives) reports
its state transitions to a :class:`Tracer`.  The default is
:data:`NULL_TRACER`, whose ``enabled`` flag is ``False`` — every emission
site guards with ``if tracer.enabled:`` so a disabled tracer costs one
attribute read and a branch, nothing more.  Timelines therefore stay
byte-identical with tracing on or off: tracers observe, they never steer.

Event types (the ``type`` field of every record)
------------------------------------------------
``process.resume``   a process coroutine was resumed
                     (``process``: name)
``process.suspend``  a process parked on an event
                     (``process``, ``target``: class name of the event).
                     In MPI jobs only rank programs are processes: a
                     message in flight is a chain of event callbacks
                     and appears as its ``flow.*`` records instead
``core.activity``    a core's activity changed
                     (``core``, ``node``, ``old``, ``new``)
``core.frequency``   a DVFS (P-state) transition
                     (``core``, ``node``, ``old``, ``new`` in GHz)
``core.tstate``      a throttle (T-state) transition
                     (``core``, ``node``, ``old``, ``new``)
``flow.start``       a bulk transfer entered the fabric
                     (``flow``: label, ``bytes``, ``links``, ``seq``: the
                     fabric's admission number — labels repeat across a
                     run, ``seq`` is unique)
``flow.finish``      a bulk transfer completed
                     (``flow``, ``bytes``, ``start``, ``links``, ``seq``,
                     ``delivered``: bytes carried, ``duration``: seconds
                     from start to completion).  Every ``flow.start``
                     has exactly one ``flow.finish`` with the same
                     ``seq`` — trace consumers can rely on the pairing
                     to compute flow lifetimes.
``fault.*``          the fault-injection layer acted (see repro.faults):
                     ``fault.plan`` (``spec``) at bind, ``fault.link``
                     (``links``, ``factor``) per capacity event,
                     ``fault.noise`` (``core``, ``pulses``) per insertion
``mark``             free-form annotation from model code
                     (``name`` plus arbitrary extra fields).  Notable
                     producer: the online governor emits
                     ``name="governor.slack"`` (``core``, ``wait_s``,
                     ``ewma_s``) at every wait exit, feeding the
                     slack-EWMA metric series (repro.obs)

Every record also carries ``t``, the simulation time in seconds.

The JSONL schema written by :class:`JsonlTracer` is exactly one record per
line: ``{"t": <float>, "type": "<type>", ...fields}``.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterator, List, Optional, Union


@dataclass(frozen=True)
class TraceRecord:
    """One instrumentation event on the simulation timeline."""

    t: float
    type: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"t": self.t, "type": self.type, **self.data})


class Tracer:
    """Base tracer: receives typed events via :meth:`emit`.

    Subclasses override :meth:`emit` (all the typed convenience methods
    funnel into it).  ``enabled`` is the zero-overhead switch every
    emission site checks before building a record.
    """

    enabled: bool = True

    # -- sink --------------------------------------------------------------
    def emit(self, t: float, type: str, **data: Any) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release any underlying resource (file tracers)."""

    # -- typed emission helpers -------------------------------------------
    def process_resume(self, t: float, name: str) -> None:
        self.emit(t, "process.resume", process=name)

    def process_suspend(self, t: float, name: str, target: str) -> None:
        self.emit(t, "process.suspend", process=name, target=target)

    def core_activity(self, t: float, core_id: int, node_id: int,
                      old: str, new: str) -> None:
        self.emit(t, "core.activity", core=core_id, node=node_id,
                  old=old, new=new)

    def power_state(self, t: float, core_id: int, node_id: int, kind: str,
                    old: float, new: float) -> None:
        self.emit(t, f"core.{kind}", core=core_id, node=node_id,
                  old=old, new=new)

    def flow_start(self, t: float, label: str, nbytes: float,
                   links: List[str], seq: int = -1) -> None:
        self.emit(t, "flow.start", flow=label, bytes=nbytes, links=links,
                  seq=seq)

    def flow_finish(self, t: float, label: str, nbytes: float,
                    started: float, links: List[str], seq: int = -1,
                    delivered: Optional[float] = None) -> None:
        self.emit(t, "flow.finish", flow=label, bytes=nbytes,
                  start=started, links=links, seq=seq,
                  delivered=nbytes if delivered is None else delivered,
                  duration=t - started)

    def fault(self, t: float, kind: str, **data: Any) -> None:
        self.emit(t, f"fault.{kind}", **data)

    def mark(self, t: float, name: str, **data: Any) -> None:
        self.emit(t, "mark", name=name, **data)


class NullTracer(Tracer):
    """The zero-overhead default: never records anything."""

    enabled = False

    def emit(self, t: float, type: str, **data: Any) -> None:  # pragma: no cover
        pass


#: Shared do-nothing tracer (safe: it holds no state).
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Collects records in memory (tests, notebooks)."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def emit(self, t: float, type: str, **data: Any) -> None:
        self.records.append(TraceRecord(t, type, data))

    def of_type(self, type: str) -> List[TraceRecord]:
        return [r for r in self.records if r.type == type]

    def __len__(self) -> int:
        return len(self.records)


class JsonlTracer(Tracer):
    """Streams records as JSON lines to a file (the ``--trace`` backend).

    Accepts a path (opened and owned; closed by :meth:`close`) or any
    writable text file object (borrowed; left open).  The stream is
    flushed every ``flush_every`` records so a crashed or killed run
    loses at most that many trailing records, not the whole buffered
    tail.  :meth:`close` is idempotent; :meth:`emit` after close raises
    ``ValueError`` instead of silently writing into a closed (or
    no-longer-owned) sink.
    """

    def __init__(self, sink: Union[str, IO[str]], flush_every: int = 1024):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if isinstance(sink, str):
            self._file: IO[str] = open(sink, "w")
            self._owns = True
        else:
            self._file = sink
            self._owns = False
        self.flush_every = flush_every
        self.records_written = 0
        self._closed = False

    def emit(self, t: float, type: str, **data: Any) -> None:
        if self._closed:
            raise ValueError("emit() on a closed JsonlTracer")
        self._file.write(json.dumps({"t": t, "type": type, **data}) + "\n")
        self.records_written += 1
        if self.records_written % self.flush_every == 0:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TeeTracer(Tracer):
    """Fans every record out to several child tracers.

    Built by :class:`~repro.sim.session.SimSession` when an ambient
    metrics registry is active alongside a record tracer; closing the
    tee closes its children (matching the session's single-tracer
    close semantics).
    """

    def __init__(self, children: List[Tracer]):
        self.children = [c for c in children if c is not None]

    def emit(self, t: float, type: str, **data: Any) -> None:
        for child in self.children:
            if child.enabled:
                child.emit(t, type, **data)

    def close(self) -> None:
        for child in self.children:
            child.close()


# -- ambient default -------------------------------------------------------
# Components built without an explicit tracer (e.g. jobs constructed deep
# inside a cell executor) pick up the ambient default, so the CLI's
# ``--trace`` flag reaches every simulation a command runs.
_DEFAULT: Tracer = NULL_TRACER


def default_tracer() -> Tracer:
    """The ambient tracer new sessions adopt when none is passed."""
    return _DEFAULT


@contextlib.contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Tracer]:
    """Scope ``tracer`` as the ambient default (restores on exit)."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = tracer if tracer is not None else NULL_TRACER
    try:
        yield _DEFAULT
    finally:
        _DEFAULT = previous
