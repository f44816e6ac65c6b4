"""Differential tests: the production fabric against the scalar oracle
(``tests/oracles/scalar_fabric.py``) and its two water-fillers against
each other, plus regressions for the bugs the vectorization fixed
(zero-rate stall, tight-link tolerance at tiny capacities, link_bytes
settled at delivery)."""

import math
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import NetworkSpec
from repro.network.fabric import Fabric, Link, maxmin_rates, waterfill
from repro.sim import Environment
from tests.oracles.scalar_fabric import Flow, ScalarFabric


class _Ev:
    pass


def _close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def maxmin_rates_vectorized(
    flows, capacities: Dict[Link, float], congestion=0.0, congestion_saturation=7
):
    """:func:`maxmin_rates`' signature over flow objects, solved as one
    :func:`waterfill` segment."""
    if not flows:
        return {}
    link_ids: Dict[Link, int] = {}
    for flow in flows:
        for link in flow.links:
            if link not in link_ids:
                link_ids[link] = len(link_ids)
    n_links = len(link_ids)
    caps = np.empty(n_links)
    for link, i in link_ids.items():
        caps[i] = capacities[link]
    n = len(flows)
    flow_cap = np.fromiter((f.cap for f in flows), dtype=np.float64, count=n)
    lens = np.fromiter((len(f.links) for f in flows), dtype=np.int64, count=n)
    rep_flow = np.repeat(np.arange(n), lens)
    rep_link = np.fromiter(
        (link_ids[lk] for f in flows for lk in f.links),
        dtype=np.int64,
        count=int(lens.sum()),
    )
    seg = np.zeros(n, dtype=np.int64)
    rates = waterfill(
        n_links, caps, flow_cap, seg, 1, rep_flow, rep_link,
        congestion, congestion_saturation,
    )
    return {flow: float(rates[i]) for i, flow in enumerate(flows)}


# ------------------------------------------- maxmin differential (unit-ish)
@st.composite
def allocation_problems(draw, cap_min=0.1, cap_max=100.0):
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = [
        Link(f"l{i}", draw(st.floats(min_value=cap_min, max_value=cap_max)))
        for i in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=12))
    flows = []
    for _ in range(n_flows):
        path_ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        cap = draw(
            st.one_of(
                st.just(math.inf), st.floats(min_value=0.01, max_value=50.0)
            )
        )
        flows.append(Flow(tuple(links[i] for i in path_ids), 1.0, cap, _Ev()))
    capacities = {lk: lk.capacity for lk in links}
    congestion = draw(st.sampled_from([0.0, 0.05, 0.3]))
    saturation = draw(st.sampled_from([1, 7]))
    return flows, capacities, congestion, saturation


@given(allocation_problems())
@settings(max_examples=200)
def test_vectorized_maxmin_matches_scalar_exactly(problem):
    flows, capacities, congestion, saturation = problem
    scalar = maxmin_rates(flows, capacities, congestion, saturation)
    vector = maxmin_rates_vectorized(flows, capacities, congestion, saturation)
    assert set(scalar) == set(vector)
    for flow in flows:
        # Bit-identical, not approximately equal: the two kernels use the
        # same fold orders by construction.
        assert scalar[flow] == vector[flow], (scalar[flow], vector[flow])


@given(allocation_problems(cap_min=1e-30, cap_max=1e-18))
@settings(max_examples=100)
def test_vectorized_maxmin_matches_scalar_at_tiny_capacities(problem):
    """The abs+rel tight tolerance keeps ~0-level rounds consistent."""
    flows, capacities, congestion, saturation = problem
    scalar = maxmin_rates(flows, capacities, congestion, saturation)
    vector = maxmin_rates_vectorized(flows, capacities, congestion, saturation)
    for flow in flows:
        assert scalar[flow] == vector[flow]
        assert scalar[flow] >= 0.0
    # No link oversubscribed (tolerance-scaled).
    for link, cap in capacities.items():
        used = sum(scalar[f] for f in flows if link in f.links)
        assert used <= cap * (1 + 1e-9) + 1e-22


def test_tiny_capacity_near_ties_freeze_together():
    """Links whose shares differ by less than the absolute tolerance
    tie-break as one tight set; a purely relative tolerance would give
    the marginally-larger link a second round and a different rate."""
    a = Link("a", 1e-25)
    b = Link("b", 1e-25 * (1.0 + 1e-7))  # within 1e-24 abs of the level
    fa = Flow((a,), 1.0, math.inf, _Ev())
    fb = Flow((b,), 1.0, math.inf, _Ev())
    rates = maxmin_rates([fa, fb], {a: a.capacity, b: b.capacity})
    assert rates[fa] == rates[fb] == 1e-25
    vec = maxmin_rates_vectorized([fa, fb], {a: a.capacity, b: b.capacity})
    assert vec[fa] == rates[fa] and vec[fb] == rates[fb]


# --------------------------------------------------- full-fabric differential
@st.composite
def fabric_scenarios(draw):
    """A randomized schedule: links, flows with start times, optional
    congestion and a mid-run capacity degradation."""
    n_links = draw(st.integers(min_value=2, max_value=5))
    link_caps = [
        draw(st.floats(min_value=0.5, max_value=8.0)) for _ in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(n_flows):
        path = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=min(3, n_links),
                unique=True,
            )
        )
        nbytes = draw(st.floats(min_value=1.0, max_value=64.0))
        start = draw(st.sampled_from([0.0, 0.0, 0.5, 1.25]))
        cap = draw(st.one_of(st.just(math.inf), st.floats(0.2, 4.0)))
        flows.append((path, nbytes, start, cap))
    congestion = draw(st.sampled_from([0.0, 0.05]))
    fault = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=n_links - 1),
                st.sampled_from([0.35, 0.0]),  # degrade or kill outright
                st.sampled_from([0.25, 0.75]),
            ),
        )
    )
    return link_caps, flows, congestion, fault


def _run_scenario(kernel, link_caps, flows, congestion, fault):
    env = Environment()
    fabric = kernel(env, NetworkSpec(flow_congestion=congestion))
    links = [fabric.add_link(f"l{i}", cap) for i, cap in enumerate(link_caps)]
    done = {}

    def sender(env, label, path, nbytes, start, cap):
        if start > 0.0:
            yield env.timeout(start)
        finished = yield fabric.transfer(
            [links[i] for i in path], nbytes, cpu_cap=cap, label=label
        )
        done[label] = finished

    for k, (path, nbytes, start, cap) in enumerate(flows):
        env.process(sender(env, f"f{k}", path, nbytes, start, cap))

    if fault is not None:
        li, factor, at = fault

        def degrade(_timer):
            links[li].fault_factor = factor
            fabric.capacities_changed([links[li]])

        def restore(_timer):
            links[li].fault_factor = 1.0
            fabric.capacities_changed([links[li]])

        env.call_after(at, degrade)
        # Always restore so killed links cannot strand flows forever.
        env.call_after(at + 1.5, restore)

    env.run()
    return done, fabric.bytes_delivered, fabric.link_bytes


@given(fabric_scenarios())
@settings(max_examples=60, deadline=None)
def test_full_fabric_runs_identical_across_kernels(scenario):
    s_done, s_bytes, s_link = _run_scenario(ScalarFabric, *scenario)
    v_done, v_bytes, v_link = _run_scenario(Fabric, *scenario)
    # Per-flow completion times are bit-identical across kernels.
    assert s_done == v_done
    # Aggregate byte counters may differ only by fold-order ulps.
    assert _close(s_bytes, v_bytes, rel=1e-12)
    assert set(s_link) == set(v_link)
    for name in s_link:
        assert _close(s_link[name], v_link[name], rel=1e-12), name


class _AllWaterfill(Fabric):
    SMALL_BATCH = -1


class _AllMaxmin(Fabric):
    SMALL_BATCH = 10**9


@given(fabric_scenarios())
@settings(max_examples=60, deadline=None)
def test_filler_regimes_agree_on_whole_runs(scenario):
    """Every re-rate through numpy ``waterfill`` vs every re-rate through
    the scalar ``maxmin_rates``: the fabric's two fillers must give the
    same run bit for bit — no oracle needed."""
    w_done, w_bytes, w_link = _run_scenario(_AllWaterfill, *scenario)
    m_done, m_bytes, m_link = _run_scenario(_AllMaxmin, *scenario)
    assert w_done == m_done
    assert w_bytes == m_bytes
    assert w_link == m_link


# --------------------------------------------------------- zero-rate stall
def _kernel(oracle):
    return ScalarFabric if oracle else Fabric


@pytest.mark.parametrize("oracle", [False, True])
def test_starved_flow_survives_and_resumes(oracle):
    """A flow re-rated to zero while a component peer progresses must not
    be dropped (or deadlock the fabric): it parks, survives its peer's
    completion re-rate, and resumes when capacity returns."""
    env = Environment()
    fabric = _kernel(oracle)(env, NetworkSpec(flow_congestion=0.0))
    a = fabric.add_link("a", 1000.0)
    b = fabric.add_link("b", 1000.0)
    done = {}

    def sender(env, label, links, nbytes):
        done[label] = yield fabric.transfer(links, nbytes, label=label)

    # f1 rides link a alone; f2 needs both a and b.
    env.process(sender(env, "f1", [a], 1000.0))
    env.process(sender(env, "f2", [a, b], 500.0))

    def kill_b(_timer):
        b.fault_factor = 0.0
        fabric.capacities_changed([b])

    def restore_b(_timer):
        b.fault_factor = 1.0
        fabric.capacities_changed([b])

    env.call_after(0.0, kill_b)  # starve f2 from the start
    env.call_after(2.0, restore_b)
    env.run()

    # f1 progressed at full rate the whole time (f2 was frozen at zero,
    # not competing): 1000 B at 1000 B/s.
    assert done["f1"] == pytest.approx(1.0)
    # f2 parked for 2 s — surviving f1's completion re-rate at t=1, which
    # re-seeds stalled flows but finds b still dead — then delivered
    # 500 B at full rate.
    assert done["f2"] == pytest.approx(2.5)
    assert fabric.bytes_delivered == pytest.approx(1500.0)
    assert fabric.link_bytes["a"] == pytest.approx(1500.0)
    assert fabric.link_bytes["b"] == pytest.approx(500.0)
    assert not fabric.active_flows


@pytest.mark.parametrize("oracle", [False, True])
def test_all_flows_zero_rated_is_not_a_deadlock(oracle):
    """Historically the scalar kernel raised 'fabric deadlock' when a
    re-rate left every component flow at zero rate."""
    env = Environment()
    fabric = _kernel(oracle)(env, NetworkSpec(flow_congestion=0.0))
    lk = fabric.add_link("l", 100.0)
    done = {}

    def sender(env):
        done["f"] = yield fabric.transfer([lk], 100.0, label="f")

    env.process(sender(env))

    def kill(_timer):
        lk.fault_factor = 0.0
        fabric.capacities_changed([lk])

    def restore(_timer):
        lk.fault_factor = 1.0
        fabric.capacities_changed([lk])

    env.call_after(0.25, kill)
    env.call_after(1.25, restore)
    env.run()
    # 25 B moved before the outage; the remaining 75 B after restore.
    assert done["f"] == pytest.approx(2.0)
    assert fabric.bytes_delivered == pytest.approx(100.0)


# ------------------------------------------------ link_bytes at delivery
@pytest.mark.parametrize("oracle", [False, True])
def test_link_bytes_settle_at_delivery_not_at_start(oracle):
    env = Environment()
    fabric = _kernel(oracle)(env, NetworkSpec(flow_congestion=0.0))
    lk = fabric.add_link("l", 1000.0)

    def sender(env, start, nbytes):
        if start:
            yield env.timeout(start)
        yield fabric.transfer([lk], nbytes, label=f"s{start}")

    env.process(sender(env, 0.0, 1000.0))
    env.process(sender(env, 0.4, 1000.0))

    env.run(until=0.2)
    # In flight: nothing delivered yet (the old kernel credited the full
    # 1000 B at transfer start).  link_flows keeps start-count semantics.
    assert fabric.link_bytes["l"] == 0.0
    assert fabric.link_flows["l"] == 1

    env.run(until=0.45)
    # The second admission at t=0.4 settles the first flow: 400 B done.
    assert fabric.link_bytes["l"] == pytest.approx(400.0)
    assert fabric.link_bytes["l"] == pytest.approx(fabric.bytes_delivered)
    assert fabric.link_flows["l"] == 2

    env.run()
    assert fabric.link_bytes["l"] == pytest.approx(2000.0)
    assert fabric.bytes_delivered == pytest.approx(2000.0)
