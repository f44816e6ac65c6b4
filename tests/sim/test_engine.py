"""Unit tests for the DES engine core."""

import pytest

from repro.sim import (
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(3.5)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [3.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    stamps = []

    def proc(env):
        for delay in (1.0, 2.0, 4.0):
            yield env.timeout(delay)
            stamps.append(env.now)

    env.process(proc(env))
    env.run()
    assert stamps == [1.0, 3.0, 7.0]


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_there():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=4.5)
    assert env.now == 4.5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env, done):
        yield env.timeout(2.0)
        done.succeed(42)

    done = env.event()
    env.process(proc(env, done))
    assert env.run(until=done) == 42
    assert env.now == 2.0


def test_run_until_failed_event_raises_its_exception():
    env = Environment()
    ev = env.event()
    env.call_after(1.0, lambda _t: ev.fail(KeyError("lost")))
    with pytest.raises(KeyError, match="lost"):
        env.run(until=ev)
    assert env.now == 1.0


def test_run_until_crashed_process_raises():
    env = Environment()

    def crashes(env):
        yield env.timeout(2.0)
        raise ValueError("crashed")

    with pytest.raises(ValueError, match="crashed"):
        env.run(until=env.process(crashes(env)))


def test_run_until_defused_failure_returns_the_exception():
    env = Environment()
    ev = env.event()
    exc = KeyError("handled")
    ev.fail(exc)
    ev.defuse()
    assert env.run(until=ev) is exc


def test_run_processes_every_event_through_step():
    """Tools that time the engine wrap ``Environment.step``: ``run()``
    must dispatch each event through it, never inline."""
    calls = []

    class Counted(Environment):
        def step(self):
            calls.append(self.now)
            super().step()

    env = Counted()

    def proc(env):
        for _ in range(5):
            yield env.timeout(1.0)
        yield env.all_of([env.timeout(1.0), env.timeout(2.0)])

    env.call_after(0.5, lambda _t: None)
    env.call_after(9.0, lambda _t: None).cancel()
    env.process(proc(env))
    env.run(until=3.0)
    env.run(until=env.process(proc(env)))
    env.run()
    # One step() per processed event, plus the one that met the empty
    # schedule at the end.
    assert len(calls) == env.events_processed + 1


def test_process_return_value_propagates():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return "result"

    def outer(env, out):
        value = yield env.process(inner(env))
        out.append(value)

    out = []
    env.process(outer(env, out))
    env.run()
    assert out == ["result"]


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    out = []

    def proc(env, ev):
        yield env.timeout(5.0)
        value = yield ev  # ev fired at t=0; must not deadlock
        out.append((env.now, value))

    ev = env.event()
    ev.succeed("early")
    env.process(proc(env, ev))
    env.run()
    assert out == [(5.0, "early")]


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_double_succeed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    caught = []

    def proc(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(proc(env, ev))
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_propagates_to_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_process_exception_fails_its_event():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner failure")

    def watcher(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(watcher(env))
    env.run()
    assert caught == ["inner failure"]


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc(env):
        yield 42  # type: ignore[misc]

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_interrupt_wakes_process_with_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3.0, "wake up")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_many_processes_deterministic_order():
    """Two identical runs produce the identical completion order."""

    def run_once():
        env = Environment()
        order = []

        def proc(env, i):
            yield env.timeout((i * 7) % 5)
            yield env.timeout((i * 3) % 4)
            order.append(i)

        for i in range(50):
            env.process(proc(env, i))
        env.run()
        return order

    assert run_once() == run_once()


def test_event_factory_returns_pending_event():
    env = Environment()
    ev = env.event()
    assert isinstance(ev, Event)
    assert not ev.triggered
    assert not ev.processed


def test_defer_runs_after_events_already_queued_at_now():
    """defer() is the fabric's batching primitive: the callback must see
    every event already scheduled at the current timestamp."""
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))

    def at_one(_timer):
        order.append("timer")
        env.defer(lambda _t: order.append("deferred"))

    env.call_at(1.0, at_one)
    env.run()
    # The deferred callback fired at t=1.0, after both same-time events.
    assert order == ["timer", "a", "b", "deferred"]


def test_defer_is_cancellable():
    env = Environment()
    fired = []
    timer = env.defer(lambda _t: fired.append(True))
    timer.cancel()
    env.run()
    assert not fired
