"""The engine dispatches events in (time, priority, push order).

Events pushed for the current instant wait in one FIFO lane per
priority instead of the heap (DESIGN.md §5).  These tests hold the
engine to a reference that keeps every push in one list and always
dispatches the smallest (time, priority, push order) entry still
pending: the order of a single heap keyed that way.
"""

import math
from dataclasses import dataclass, field
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, SimulationError, Timer

#: Relative delays: zero, one that rounds to ``now`` once the clock is
#: past 0.25 (but not at 0), and future ones that land several pushes
#: on equal times.
DELAYS = (0.0, 1e-17, 0.25, 0.5, 1.0)
#: Absolute ``call_at`` times (clamped to ``now`` when already past).
TIMES = (0.25, 0.5, 1.0, 1.5)
HORIZONS = (0.0, 0.25, 0.5, 0.75, 1.0)
KINDS = ("timeout", "timer", "at", "defer", "succeed", "schedule")
TIMER_KINDS = ("timer", "at", "defer")


@dataclass
class Node:
    """One push; when its event runs it records itself, makes its
    children's pushes and then cancels the timers named in ``cancels``."""

    kind: str
    delay: float
    at: float
    priority: int
    children: List["Node"]
    cancels: List[int]
    ident: int = field(default=-1)


@st.composite
def nodes(draw, depth=0):
    children = (
        draw(st.lists(nodes(depth + 1), max_size=3)) if depth < 3 else []
    )
    return Node(
        kind=draw(st.sampled_from(KINDS)),
        delay=draw(st.sampled_from(DELAYS)),
        at=draw(st.sampled_from(TIMES)),
        priority=draw(st.sampled_from((URGENT, NORMAL))),
        children=children,
        cancels=draw(st.lists(st.integers(0, 63), max_size=2)),
    )


segment = st.one_of(
    st.tuples(st.just("until"), st.sampled_from(HORIZONS)),
    st.tuples(st.just("event"), st.integers(0, 63)),
    st.just(("peek",)),
)


@st.composite
def programs(draw):
    roots = draw(st.lists(nodes(), min_size=1, max_size=5))
    count = 0
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        node.ident = count
        count += 1
        stack.extend(reversed(node.children))
    return roots, count, draw(st.lists(segment, max_size=5))


class Reference:
    """Every push in one list; dispatch takes the smallest
    (time, priority, push order) among the pending ones."""

    def __init__(self, count):
        self.now = 0.0
        self.pending = []  # [time, priority, order, node]
        self.pushes = 0
        self.state = ["unpushed"] * count
        self.log = []
        self.events_processed = 0

    def push_all(self, node_list):
        for node in node_list:
            now = self.now
            time = {
                "timeout": now + node.delay,
                "timer": now + node.delay,
                "at": max(node.at, now),
                "defer": now + 0.0,
                "succeed": now,
                "schedule": now + node.delay,
            }[node.kind]
            priority = node.priority if node.kind in ("succeed", "schedule") else NORMAL
            self.pending.append((time, priority, self.pushes, node))
            self.pushes += 1
            self.state[node.ident] = "pending"

    def _head(self):
        return min(self.pending, key=lambda entry: entry[:3]) if self.pending else None

    def peek(self):
        head = self._head()
        return math.inf if head is None else head[0]

    def step(self):
        head = self._head()
        self.pending.remove(head)
        time, _, _, node = head
        self.now = time
        self.events_processed += 1
        self.state[node.ident] = "done"
        self.log.append((node.ident, time))
        self.push_all(node.children)
        for target in node.cancels:
            self.cancel(target % len(self.state))
        return node

    def cancel(self, ident):
        entry = next((e for e in self.pending if e[3].ident == ident), None)
        if entry is not None and entry[3].kind in TIMER_KINDS:
            self.pending.remove(entry)
            self.state[ident] = "cancelled"

    def run_until(self, horizon):
        while self.peek() <= horizon:
            self.step()
        self.now = horizon

    def run_event(self, ident):
        while self.pending:
            if self.step().ident == ident:
                return "fired"
        return "error"

    def run(self):
        while self.pending:
            self.step()


class Engine:
    """The same program on :class:`Environment`."""

    def __init__(self, count):
        self.env = Environment()
        self.handles = [None] * count
        self.log = []

    def push_all(self, node_list):
        env = self.env
        for node in node_list:
            fire = self._fire(node)
            if node.kind == "timeout":
                event = env.timeout(node.delay)
                event.callbacks.append(fire)
            elif node.kind == "timer":
                event = env.call_after(node.delay, fire)
            elif node.kind == "at":
                event = env.call_at(max(node.at, env.now), fire)
            elif node.kind == "defer":
                event = env.defer(fire)
            elif node.kind == "succeed":
                event = env.event()
                event.callbacks.append(fire)
                event.succeed(priority=node.priority)
            else:
                event = env.event()
                event.callbacks.append(fire)
                env.schedule(event, node.priority, node.delay)
            self.handles[node.ident] = event

    def _fire(self, node):
        def fire(_event):
            self.log.append((node.ident, self.env.now))
            self.push_all(node.children)
            for target in node.cancels:
                handle = self.handles[target % len(self.handles)]
                if isinstance(handle, Timer):
                    handle.cancel()
        return fire

    def run_event(self, ident):
        try:
            self.env.run(until=self.handles[ident])
        except SimulationError:
            return "error"
        return "fired"


@given(programs())
@settings(max_examples=300, deadline=None)
def test_dispatch_follows_time_priority_push_order(program):
    roots, count, segments = program
    ref, eng = Reference(count), Engine(count)
    ref.push_all(roots)
    eng.push_all(roots)
    env = eng.env
    for seg in segments:
        if seg[0] == "until":
            horizon = max(seg[1], ref.now)
            ref.run_until(horizon)
            env.run(until=horizon)
        elif seg[0] == "event":
            ident = seg[1] % count
            if ref.state[ident] != "pending":
                continue
            assert eng.run_event(ident) == ref.run_event(ident)
        else:
            assert env.peek() == ref.peek()
        assert eng.log == ref.log
        assert (env.now, env.events_processed) == (ref.now, ref.events_processed)
    ref.run()
    env.run()
    assert eng.log == ref.log
    assert (env.now, env.events_processed) == (ref.now, ref.events_processed)
    assert env.peek() == math.inf


@pytest.mark.parametrize("priority", [-1, 2, 7])
def test_schedule_rejects_unknown_priorities(priority):
    env = Environment()
    with pytest.raises(ValueError, match="priority"):
        env.schedule(env.event(), priority=priority)
    with pytest.raises(ValueError, match="priority"):
        env.event().succeed(priority=priority)
