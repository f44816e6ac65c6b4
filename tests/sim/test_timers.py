"""Tests for the indexed/cancellable Timer API on the Environment."""

import pytest

from repro.sim import Environment, Timer


def test_call_after_fires_at_time():
    env = Environment()
    fired = []

    env.call_after(5.0, lambda t: fired.append(env.now))
    env.run()
    assert fired == [5.0]


def test_call_at_fires_at_absolute_time():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(2.0)
        env.call_at(7.0, lambda t: fired.append(env.now))

    env.process(proc(env))
    env.run()
    assert fired == [7.0]


def test_call_at_in_past_rejected():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)

    env.process(proc(env))
    env.run()
    with pytest.raises(ValueError):
        env.call_at(1.0, lambda t: None)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_after(-1.0, lambda t: None)


def test_cancelled_timer_never_fires():
    env = Environment()
    fired = []

    timer = env.call_after(5.0, lambda t: fired.append(env.now))
    timer.cancel()
    env.run()
    assert fired == []
    assert timer.cancelled
    assert not timer.fired


def test_cancel_is_idempotent_and_safe_after_fire():
    env = Environment()
    fired = []

    timer = env.call_after(1.0, lambda t: fired.append(env.now))
    env.run()
    assert timer.fired
    timer.cancel()  # after fire: no-op
    timer.cancel()  # repeatable
    assert timer.fired and not timer.cancelled
    assert fired == [1.0]


def test_cancel_mid_run_via_another_timer():
    """A timer cancelled before its firing time stays in the heap (lazy
    deletion) but is purged unobserved: it neither fires nor advances the
    clock to its scheduled time."""
    env = Environment()
    fired = []

    late = env.call_after(10.0, lambda t: fired.append("late"))
    env.call_after(2.0, lambda t: late.cancel())
    env.run()
    assert fired == []
    assert env.now == 2.0  # the dead heap entry does not drain the clock


def test_cancelled_timer_does_not_count_as_processed_event():
    env = Environment()
    env.call_after(5.0, lambda t: None).cancel()
    env.run()
    assert env.events_processed == 0
    assert env.now == 0.0


def test_cancelled_timer_past_horizon_does_not_extend_run():
    """run(until=T) + a pending cancelled timer beyond T: the bounded run
    must stop at T, and a later unbounded run must not revive the entry
    (the governor's timeout-θ timers rely on this)."""
    env = Environment()
    fired = []

    late = env.call_after(10.0, lambda t: fired.append("late"))
    env.call_after(2.0, lambda t: late.cancel())
    env.run(until=5.0)
    assert env.now == 5.0
    assert env.peek() == float("inf")  # dead entry is not pending work
    env.run()
    assert fired == []
    assert env.now == 5.0


def test_live_timer_past_horizon_survives_bounded_run():
    env = Environment()
    fired = []

    env.call_after(10.0, lambda t: fired.append(env.now))
    env.run(until=5.0)
    assert env.now == 5.0
    assert fired == []
    assert env.peek() == 10.0
    env.run()
    assert fired == [10.0]


def test_cancel_between_runs_before_horizon():
    """A timer inside the horizon but cancelled between runs is purged by
    the horizon loop without being stepped."""
    env = Environment()
    fired = []

    timer = env.call_after(3.0, lambda t: fired.append("t"))
    env.run(until=1.0)
    timer.cancel()
    before = env.events_processed
    env.run(until=5.0)
    assert fired == []
    assert env.events_processed == before
    assert env.now == 5.0


def test_timer_callback_receives_timer_handle():
    env = Environment()
    seen = []

    timer = env.call_after(1.0, lambda t: seen.append(t))
    env.run()
    assert seen == [timer]
    assert isinstance(timer, Timer)


def test_timer_at_attribute_is_absolute():
    env = Environment()

    def proc(env):
        yield env.timeout(4.0)
        timer = env.call_after(6.0, lambda t: None)
        assert timer.at == 10.0

    env.process(proc(env))
    env.run()


def test_rearm_pattern():
    """The fabric's keep-or-replace pattern: cancel then re-schedule
    earlier, only the replacement fires."""
    env = Environment()
    fired = []

    timer = env.call_after(10.0, lambda t: fired.append(("old", env.now)))
    timer.cancel()
    env.call_after(4.0, lambda t: fired.append(("new", env.now)))
    env.run()
    assert fired == [("new", 4.0)]


def test_timers_interleave_deterministically_with_timeouts():
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(1.0)
        order.append("timeout@1")
        yield env.timeout(2.0)
        order.append("timeout@3")

    env.process(proc(env))
    env.call_after(1.0, lambda t: order.append("timer@1"))
    env.call_after(2.0, lambda t: order.append("timer@2"))
    env.run()
    # Same-time ties break by creation order: the timer handles were created
    # before the process body ran and scheduled its first timeout.
    assert order == ["timer@1", "timeout@1", "timer@2", "timeout@3"]
