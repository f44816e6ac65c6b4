"""Tests for composite AllOf/AnyOf condition events."""

import pytest

from repro.sim import Condition, Environment


def test_all_of_waits_for_slowest():
    env = Environment()
    out = []

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.all_of([t1, t2])
        out.append((env.now, result[t1], result[t2]))

    env.process(proc(env))
    env.run()
    assert out == [(5.0, "fast", "slow")]


def test_any_of_fires_on_first():
    env = Environment()
    out = []

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        out.append(env.now)
        assert t1 in result
        assert t2 not in result

    env.process(proc(env))
    env.run()
    assert out == [1.0]


def test_all_of_empty_fires_immediately():
    env = Environment()
    out = []

    def proc(env):
        yield env.timeout(2.0)
        yield env.all_of([])
        out.append(env.now)

    env.process(proc(env))
    env.run()
    assert out == [2.0]


def test_any_of_empty_fires_immediately():
    env = Environment()
    out = []

    def proc(env):
        yield env.any_of([])
        out.append(env.now)

    env.process(proc(env))
    env.run()
    assert out == [0.0]


def test_all_of_with_already_fired_events():
    env = Environment()
    out = []

    def proc(env, ev):
        yield env.timeout(3.0)
        result = yield env.all_of([ev, env.timeout(1.0)])
        out.append(env.now)
        assert ev in result

    ev = env.event()
    ev.succeed("pre")
    env.process(proc(env, ev))
    env.run()
    assert out == [4.0]


def test_all_of_failure_propagates():
    env = Environment()
    caught = []

    def proc(env, bad):
        try:
            yield env.all_of([env.timeout(10.0), bad])
        except KeyError as exc:
            caught.append((env.now, exc.args[0]))

    bad = env.event()
    env.process(proc(env, bad))

    def failer(env, bad):
        yield env.timeout(2.0)
        bad.fail(KeyError("broken"))

    env.process(failer(env, bad))
    env.run()
    assert caught == [(2.0, "broken")]


def test_condition_value_mapping_api():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(1.0, value="b")
        result = yield env.all_of([t1, t2])
        assert len(result) == 2
        assert list(result) == [t1, t2]
        assert result.todict() == {t1: "a", t2: "b"}
        assert result == {t1: "a", t2: "b"}
        with pytest.raises(KeyError):
            result[env.event()]

    env.process(proc(env))
    env.run()


def test_cross_environment_condition_rejected():
    env1, env2 = Environment(), Environment()
    t2 = env2.timeout(1.0)
    with pytest.raises(ValueError):
        env1.all_of([t2])


def test_nested_conditions():
    env = Environment()
    out = []

    def proc(env):
        inner = env.all_of([env.timeout(2.0), env.timeout(3.0)])
        yield env.any_of([inner, env.timeout(10.0)])
        out.append(env.now)

    env.process(proc(env))
    env.run()
    assert out == [3.0]


def test_condition_k_of_n():
    """``needed`` sets how many sub-events must fire; the value lists
    the processed ones in list order."""
    env = Environment()
    out = []

    def proc(env):
        t1 = env.timeout(3.0, value="c")
        t2 = env.timeout(1.0, value="a")
        t3 = env.timeout(2.0, value="b")
        result = yield Condition(env, [t1, t2, t3], needed=2)
        out.append((env.now, list(result), result.todict()))

    env.process(proc(env))
    env.run()
    (now, fired, values), = out
    assert now == 2.0
    assert len(fired) == 2 and values == dict(zip(fired, ["a", "b"]))


def test_all_of_value_is_every_event_even_with_duplicates():
    env = Environment()
    out = []

    def proc(env):
        t1 = env.timeout(1.0, value="x")
        t2 = env.timeout(2.0, value="y")
        result = yield env.all_of([t1, t1, t2])
        out.append((env.now, list(result)))

    env.process(proc(env))
    env.run()
    (now, fired), = out
    assert now == 2.0
    assert len(fired) == 3
