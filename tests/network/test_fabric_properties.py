"""Property-based tests (hypothesis) for the fabric's fairness and
conservation invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import NetworkSpec
from repro.network.fabric import Fabric, Link, maxmin_rates
from repro.sim import Environment
from tests.oracles.scalar_fabric import Flow, ScalarFabric


class _Ev:
    pass


@st.composite
def allocation_problems(draw):
    """Random links + flows with random paths and caps."""
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = [
        Link(f"l{i}", draw(st.floats(min_value=0.1, max_value=100.0)))
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
    return flows, capacities


@given(allocation_problems())
@settings(max_examples=200)
def test_maxmin_respects_capacities_and_caps(problem):
    flows, capacities = problem
    rates = maxmin_rates(flows, capacities)
    # Every flow got a rate; rates are positive and within its cap.
    for flow in flows:
        assert flow in rates
        assert rates[flow] > 0
        assert rates[flow] <= flow.cap * (1 + 1e-9)
    # No link is oversubscribed.
    for link, cap in capacities.items():
        used = sum(rates[f] for f in flows if link in f.links)
        assert used <= cap * (1 + 1e-9)


@given(allocation_problems())
@settings(max_examples=200)
def test_maxmin_is_pareto_maximal(problem):
    """No flow could be given more bandwidth without violating a
    constraint: every flow is either at its cap or crosses a saturated
    link."""
    flows, capacities = problem
    rates = maxmin_rates(flows, capacities)
    for flow in flows:
        if flow.cap is not math.inf and rates[flow] >= flow.cap * (1 - 1e-9):
            continue
        saturated = False
        for link in flow.links:
            used = sum(rates[f] for f in flows if link in f.links)
            if used >= capacities[link] * (1 - 1e-9):
                saturated = True
                break
        assert saturated, f"flow {flow} is not bottlenecked anywhere"


@given(allocation_problems())
@settings(max_examples=100)
def test_maxmin_fairness_on_shared_bottleneck(problem):
    """Two uncapped flows with identical paths get identical rates."""
    flows, capacities = problem
    rates = maxmin_rates(flows, capacities)
    by_path = {}
    for flow in flows:
        if math.isinf(flow.cap):
            by_path.setdefault(flow.links, []).append(rates[flow])
    for path_rates in by_path.values():
        assert max(path_rates) == pytest.approx(min(path_rates))


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=10_000_000), min_size=1, max_size=20
    ),
    stagger_us=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_fabric_conserves_bytes(sizes, stagger_us):
    env = Environment()
    fabric = Fabric(env, NetworkSpec())
    link = fabric.add_link("l", 1e9)

    def proc(env, i, nbytes):
        yield env.timeout(i * stagger_us * 1e-6)
        yield fabric.transfer([link], nbytes)

    for i, nbytes in enumerate(sizes):
        env.process(proc(env, i, nbytes))
    env.run()
    assert fabric.bytes_delivered == pytest.approx(sum(sizes), rel=1e-9)
    assert not fabric.active_flows


@given(
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=4, max_size=4)
)
@settings(max_examples=20, deadline=None)
def test_fabric_schedule_deterministic(seeds):
    """Identical transfer schedules produce identical completion times."""

    def run_once():
        env = Environment()
        fabric = Fabric(env, NetworkSpec())
        links = [fabric.add_link(f"l{i}", 1e9) for i in range(2)]
        times = []

        def proc(env, seed):
            yield env.timeout((seed % 97) * 1e-6)
            t = yield fabric.transfer(
                [links[seed % 2]], 1000 + (seed * 131) % 100_000
            )
            times.append(t)

        for seed in seeds:
            env.process(proc(env, seed))
        env.run()
        return times

    assert run_once() == run_once()


def _schedule_times(seeds, n_links=4, *, make_fabric=Fabric, tracer=None):
    """Run a fixed multi-link transfer schedule; return completion times."""
    env = Environment(tracer=tracer)
    fabric = make_fabric(env, NetworkSpec())
    links = [fabric.add_link(f"l{i}", 1e9) for i in range(n_links)]
    times = []

    def proc(env, i, seed):
        yield env.timeout((seed % 53) * 1e-6)
        path = [links[seed % n_links], links[(seed + 1 + i % 2) % n_links]]
        t = yield fabric.transfer(
            path, 1000 + (seed * 131) % 500_000,
            cpu_cap=(0.4e9 if seed % 3 == 0 else math.inf),
        )
        times.append((i, t))

    for i, seed in enumerate(seeds):
        env.process(proc(env, i, seed))
    env.run()
    return times, fabric


@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=24
    )
)
@settings(max_examples=40, deadline=None)
def test_incremental_rerate_matches_full_recompute(seeds):
    """The component-local incremental re-rater is exact: completion times
    match the oracle's whole-fabric recomputation on every schedule."""

    def full_recompute(env, spec):
        return ScalarFabric(env, spec, full_recompute=True)

    inc, fab_inc = _schedule_times(seeds)
    full, fab_full = _schedule_times(seeds, make_fabric=full_recompute)
    assert len(inc) == len(full)
    for (i, t_inc), (j, t_full) in zip(sorted(inc), sorted(full)):
        assert i == j
        assert t_inc == pytest.approx(t_full, rel=1e-9, abs=1e-15)
    assert fab_inc.bytes_delivered == pytest.approx(fab_full.bytes_delivered)


@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=16
    )
)
@settings(max_examples=30, deadline=None)
def test_tracer_does_not_perturb_timeline(seeds):
    """Observing a run (tracer enabled) must leave every completion time
    byte-identical to the unobserved run — tracers observe, never steer."""
    from repro.sim.trace import RecordingTracer

    tracer = RecordingTracer()
    observed, fab_obs = _schedule_times(seeds, tracer=tracer)
    silent, fab_sil = _schedule_times(seeds, tracer=None)
    assert observed == silent
    assert fab_obs.bytes_delivered == fab_sil.bytes_delivered
    # And the trace itself is complete: one start + one finish per flow.
    assert len(tracer.of_type("flow.start")) == len(seeds)
    assert len(tracer.of_type("flow.finish")) == len(seeds)


@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2, max_size=16
    )
)
@settings(max_examples=30, deadline=None)
def test_no_flow_ever_exceeds_cap_or_capacity(seeds):
    """Runtime invariant: at every re-rating instant, each in-flight flow's
    rate respects its cpu cap and no link is oversubscribed."""
    env = Environment()
    fabric = Fabric(env, NetworkSpec())
    links = [fabric.add_link(f"l{i}", 1e9) for i in range(3)]

    def check(timer):
        usage = {}
        for flow in fabric.active_flows:
            if flow.cap != math.inf:
                assert flow.rate <= flow.cap * (1 + 1e-9)
            for link in flow.links:
                usage[link] = usage.get(link, 0.0) + flow.rate
        for link, used in usage.items():
            assert used <= link.capacity * (1 + 1e-9)
        if fabric.active_flows or env.now < 30e-6:
            env.call_after(37e-6, check)

    def proc(env, seed):
        yield env.timeout((seed % 29) * 1e-6)
        yield fabric.transfer(
            [links[seed % 3]], 1000 + (seed * 131) % 300_000,
            cpu_cap=(0.3e9 if seed % 2 else math.inf),
        )

    for seed in seeds:
        env.process(proc(env, seed))
    env.call_after(1e-6, check)
    env.run()
    assert not fabric.active_flows
