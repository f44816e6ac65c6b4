"""Tests for the flow-level fabric and max-min fair sharing."""

import math

import pytest

from repro.network import Fabric, NetworkSpec
from repro.network.fabric import Link, maxmin_rates
from repro.sim import Environment, Event
from tests.oracles.scalar_fabric import Flow


def make_fabric(congestion: float = 0.0):
    env = Environment()
    fabric = Fabric(env, NetworkSpec(flow_congestion=congestion))
    return env, fabric


# -------------------------------------------------------------- maxmin unit
def _flow(links, cap=math.inf):
    class _Ev:  # stand-in, never triggered
        pass

    return Flow(tuple(links), 1.0, cap, _Ev())


def test_maxmin_single_flow_gets_full_capacity():
    lk = Link("l", 10.0)
    f = _flow([lk])
    rates = maxmin_rates([f], {lk: 10.0})
    assert rates[f] == pytest.approx(10.0)


def test_maxmin_equal_split():
    lk = Link("l", 9.0)
    flows = [_flow([lk]) for _ in range(3)]
    rates = maxmin_rates(flows, {lk: 9.0})
    for f in flows:
        assert rates[f] == pytest.approx(3.0)


def test_maxmin_cap_redistributes_surplus():
    lk = Link("l", 9.0)
    capped = _flow([lk], cap=1.0)
    free1, free2 = _flow([lk]), _flow([lk])
    rates = maxmin_rates([capped, free1, free2], {lk: 9.0})
    assert rates[capped] == pytest.approx(1.0)
    assert rates[free1] == pytest.approx(4.0)
    assert rates[free2] == pytest.approx(4.0)


def test_maxmin_multi_link_bottleneck():
    a, b = Link("a", 10.0), Link("b", 2.0)
    through = _flow([a, b])  # bottlenecked at b
    only_a = _flow([a])
    rates = maxmin_rates([through, only_a], {a: 10.0, b: 2.0})
    assert rates[through] == pytest.approx(2.0)
    assert rates[only_a] == pytest.approx(8.0)


def test_maxmin_classic_three_flow_example():
    """Textbook: two links cap 1; f1 uses both, f2 uses l1, f3 uses l2.
    Max-min gives everyone 0.5."""
    l1, l2 = Link("l1", 1.0), Link("l2", 1.0)
    f1, f2, f3 = _flow([l1, l2]), _flow([l1]), _flow([l2])
    rates = maxmin_rates([f1, f2, f3], {l1: 1.0, l2: 1.0})
    assert rates[f1] == pytest.approx(0.5)
    assert rates[f2] == pytest.approx(0.5)
    assert rates[f3] == pytest.approx(0.5)


# ------------------------------------------------------------ fabric in sim
def test_single_transfer_time():
    env, fabric = make_fabric()
    link = fabric.add_link("l", 1e9)
    done = []

    def proc(env):
        t = yield fabric.transfer([link], 1e6)
        done.append(t)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(1e-3)]


def test_two_transfers_share_link():
    env, fabric = make_fabric()
    link = fabric.add_link("l", 1e9)
    done = []

    def proc(env, tag):
        t = yield fabric.transfer([link], 1e6)
        done.append((tag, t))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    # Both share 1 GB/s: each sees 0.5 GB/s, finishing at 2 ms.
    assert done[0][1] == pytest.approx(2e-3)
    assert done[1][1] == pytest.approx(2e-3)


def test_late_joiner_slows_first_flow():
    env, fabric = make_fabric()
    link = fabric.add_link("l", 1e9)
    done = {}

    def first(env):
        t = yield fabric.transfer([link], 2e6)
        done["first"] = t

    def second(env):
        yield env.timeout(1e-3)  # first flow has moved 1 MB already
        t = yield fabric.transfer([link], 1e6)
        done["second"] = t

    env.process(first(env))
    env.process(second(env))
    env.run()
    # After 1 ms the first flow has 1 MB left; both then run at 0.5 GB/s
    # and finish together at 1 ms + 2 ms = 3 ms.
    assert done["first"] == pytest.approx(3e-3)
    assert done["second"] == pytest.approx(3e-3)


def test_completion_releases_bandwidth():
    env, fabric = make_fabric()
    link = fabric.add_link("l", 1e9)
    done = {}

    def small(env):
        t = yield fabric.transfer([link], 0.5e6)
        done["small"] = t

    def large(env):
        t = yield fabric.transfer([link], 2e6)
        done["large"] = t

    env.process(small(env))
    env.process(large(env))
    env.run()
    # Shared until small finishes at 1 ms (0.5 MB at 0.5 GB/s); large then
    # has 1.5 MB left at full rate → 1 ms + 1.5 ms = 2.5 ms.
    assert done["small"] == pytest.approx(1e-3)
    assert done["large"] == pytest.approx(2.5e-3)


def test_zero_byte_transfer_completes_immediately():
    env, fabric = make_fabric()
    link = fabric.add_link("l", 1e9)
    out = []

    def proc(env):
        t = yield fabric.transfer([link], 0)
        out.append(t)

    env.process(proc(env))
    env.run()
    assert out == [0.0]


def test_transfer_returns_an_event_callers_can_hook():
    """Callers (the message path, flow counters) append a callback to the
    event ``transfer`` returns, for empty and real transfers alike."""
    env, fabric = make_fabric()
    link = fabric.add_link("l", 1e9)
    seen = []
    for nbytes in (0, 1e6):
        event = fabric.transfer([link], nbytes)
        assert isinstance(event, Event)
        assert isinstance(event.callbacks, list)
        event.callbacks.append(lambda ev, n=nbytes: seen.append((n, ev.value)))
    env.run()
    assert seen == [(0, 0.0), (1e6, pytest.approx(1e-3))]


def test_cpu_cap_limits_single_flow():
    env, fabric = make_fabric()
    link = fabric.add_link("l", 3e9)
    out = []

    def proc(env):
        t = yield fabric.transfer([link], 3e6, cpu_cap=1e9)
        out.append(t)

    env.process(proc(env))
    env.run()
    assert out == [pytest.approx(3e-3)]


def test_capacity_fn_change_mid_flight():
    env, fabric = make_fabric()
    state = {"factor": 1.0}
    link = fabric.add_link("l", 1e9, capacity_fn=lambda: 1e9 * state["factor"])
    out = []

    def proc(env):
        t = yield fabric.transfer([link], 2e6)
        out.append(t)

    def degrade(env):
        yield env.timeout(1e-3)  # 1 MB moved
        state["factor"] = 0.5
        fabric.capacities_changed()

    env.process(proc(env))
    env.process(degrade(env))
    env.run()
    # Remaining 1 MB at 0.5 GB/s takes 2 ms → total 3 ms.
    assert out == [pytest.approx(3e-3)]


def test_bytes_delivered_accounting():
    env, fabric = make_fabric()
    link = fabric.add_link("l", 1e9)

    def proc(env):
        yield fabric.transfer([link], 1e6)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert fabric.bytes_delivered == pytest.approx(2e6)


def test_transfer_without_links_rejected():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.transfer([], 100)


def test_duplicate_link_rejected():
    env, fabric = make_fabric()
    fabric.add_link("l", 1e9)
    with pytest.raises(ValueError):
        fabric.add_link("l", 1e9)


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Link("bad", 0.0)


def test_congestion_penalty_slows_shared_link():
    env, fabric = make_fabric(congestion=0.02)
    link = fabric.add_link("l", 1e9)
    done = []

    def proc(env):
        t = yield fabric.transfer([link], 1e6)
        done.append(t)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    # Two flows: capacity degraded to 1/1.02 GB/s, shared → 2.04 ms each.
    for t in done:
        assert t == pytest.approx(2e-3 * 1.02)


def test_congestion_penalty_single_flow_unaffected():
    env, fabric = make_fabric(congestion=0.02)
    link = fabric.add_link("l", 1e9)
    done = []

    def proc(env):
        t = yield fabric.transfer([link], 1e6)
        done.append(t)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(1e-3)]


def test_congestion_aggregate_throughput_decreases_with_flows():
    """n flows move n MB slower than serially proportional — the superlinear
    contention the paper exploits."""

    def total_time(n):
        env, fabric = make_fabric(congestion=0.05)
        link = fabric.add_link("l", 1e9)
        end = []

        def proc(env):
            t = yield fabric.transfer([link], 1e6)
            end.append(t)

        for _ in range(n):
            env.process(proc(env))
        env.run()
        return max(end)

    # Per-MB time grows with concurrency.
    assert total_time(8) / 8 > total_time(4) / 4 > total_time(1)


def test_many_flows_deterministic():
    def run_once():
        env, fabric = make_fabric()
        links = [fabric.add_link(f"l{i}", 1e9) for i in range(4)]
        times = []

        def proc(env, i):
            yield env.timeout(i * 1e-5)
            t = yield fabric.transfer(
                [links[i % 4], links[(i + 1) % 4]], 1e5 * (1 + i % 3)
            )
            times.append((i, t))

        for i in range(20):
            env.process(proc(env, i))
        env.run()
        return times

    assert run_once() == run_once()
