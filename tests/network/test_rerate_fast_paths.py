"""The small re-rate fast paths, each held to what it replaces: the
closed-form single-path and disjoint-group solves against
``maxmin_rates``, write-through link capacities against a read-time
computation of their inputs, and the cached routes against the
topology.  The scalar filler is held to ``waterfill`` by the whole-run
filler differential in ``test_fabric_vectorized.py``."""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.mpi import MpiJob, ProgressMode
from repro.network import IBNetwork, NetworkSpec
from repro.network.fabric import (
    Fabric,
    Link,
    disjoint_path_rates,
    maxmin_rates,
    single_path_rates,
)
from repro.sim import Environment, SimSession
from tests.oracles.scalar_fabric import Flow, ScalarFabric


class _Ev:
    pass


# ------------------------------------------------ closed-form single path
@st.composite
def same_path_problems(draw):
    """Flows that all cross the same 1-3 links, with tied, infinite and
    fair-share caps over ordinary, zero, ~1e-300 and infinite capacities."""
    n_links = draw(st.integers(min_value=1, max_value=3))
    capacity = st.one_of(
        st.floats(min_value=0.1, max_value=100.0),
        st.sampled_from([0.0, 1e-300, 3e-300, math.inf]),
    )
    link_caps = [draw(capacity) for _ in range(n_links)]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    congestion = draw(st.sampled_from([0.0, 0.05, 0.3]))
    saturation = draw(st.sampled_from([1, 7]))
    residual = min(link_caps)
    if congestion > 0.0:
        residual = residual / (1.0 + congestion * min(n_flows - 1, saturation))
    first_share = residual / n_flows
    tied = draw(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=3)
    )
    cap = st.one_of(
        st.just(math.inf),
        st.just(first_share),
        st.sampled_from(tied),
        st.sampled_from([1e-300, 2e-300]),
    )
    caps = [draw(cap) for _ in range(n_flows)]
    return link_caps, caps, congestion, saturation


@given(same_path_problems())
@settings(max_examples=400)
def test_single_path_closed_form_matches_maxmin_exactly(problem):
    link_caps, caps, congestion, saturation = problem
    links = tuple(Link(f"l{i}", 1.0) for i in range(len(link_caps)))
    flows = [Flow(links, 1.0, cap, _Ev()) for cap in caps]
    expected = maxmin_rates(flows, dict(zip(links, link_caps)), congestion, saturation)
    got = single_path_rates(caps, link_caps, congestion, saturation)
    # Bit-identical, not approximately equal.
    assert [rate.hex() for rate in got] == [expected[f].hex() for f in flows]


def test_single_path_cap_rounds_then_share():
    """Two cap rounds (a tie at 1.0, then 2.0) before the fair share of
    what is left: 12 - 2·1 - 2 = 8 over the last two flows."""
    caps = [5.0, 1.0, 2.0, 1.0, math.inf]
    assert single_path_rates(caps, [12.0, 20.0]) == [4.0, 1.0, 2.0, 1.0, 4.0]


# ------------------------------------ closed-form link-disjoint groups
#: A group's share relative to the first group's: equal, within the
#: tight-link tolerance (1e-12 relative), just outside it, far apart.
_SHARE_FACTORS = (1.0, 1.0 + 1e-13, 1.0 + 8e-13, 1.0 + 3e-12, 1.5, 40.0)


def _penalty(congestion, saturation, n):
    return 1.0 + congestion * min(n - 1, saturation) if congestion > 0.0 else 1.0


def _group_share(capacities, n, congestion, saturation):
    residual = min(capacities)
    if congestion > 0.0:
        residual = residual / _penalty(congestion, saturation, n)
    return residual / n


@st.composite
def disjoint_group_problems(draw):
    """2-6 single-path groups sharing no link, of 1-3 links and 1-4
    flows each, whose shares are equal, within the tight tolerance of
    each other or far apart (or zero, ~1e-300 or infinite), with caps
    above every share or below one."""
    congestion = draw(st.sampled_from([0.0, 0.05, 0.3]))
    saturation = draw(st.sampled_from([1, 7]))
    base = draw(st.floats(min_value=0.1, max_value=100.0))
    groups = []
    for g in range(draw(st.integers(min_value=2, max_value=6))):
        n = draw(st.integers(min_value=1, max_value=4))
        special = draw(st.sampled_from([None, None, None, 0.0, 1e-300, math.inf]))
        if special is None:
            target = base * draw(st.sampled_from(_SHARE_FACTORS))
            tight = target * n * _penalty(congestion, saturation, n)
        else:
            tight = special
        others = draw(
            st.lists(st.sampled_from([1.0, 1.0 + 1e-13, 2.0, math.inf]), max_size=2)
        )
        capacities = [tight] + [
            tight * factor if tight > 0.0 else factor for factor in others
        ]
        capacities = draw(st.permutations(capacities))
        groups.append((capacities, n))
    shares = [_group_share(c, n, congestion, saturation) for c, n in groups]
    top = max(shares)
    cap = st.one_of(
        st.just(math.inf),
        st.just(top),
        st.just(top * 2.0) if top < math.inf else st.just(math.inf),
        st.floats(min_value=0.01, max_value=200.0),
    )
    caps = [[draw(cap) for _ in range(n)] for _, n in groups]
    return groups, caps, congestion, saturation


@given(disjoint_group_problems())
@settings(max_examples=500)
def test_disjoint_groups_closed_form_matches_maxmin_exactly(problem):
    groups, caps, congestion, saturation = problem
    flows, capacities, paths = [], {}, []
    for g, ((link_caps, n), group_caps) in enumerate(zip(groups, caps)):
        links = tuple(Link(f"g{g}l{i}", 1.0) for i in range(len(link_caps)))
        capacities.update(zip(links, link_caps))
        flows += [(g, Flow(links, 1.0, c, _Ev())) for c in group_caps]
        paths.append((link_caps, n))
    # Interleave the groups, as admission order does.
    flows.sort(key=lambda item: (item[1].cap, item[0]))
    expected = maxmin_rates([f for _, f in flows], capacities, congestion, saturation)
    min_cap = min(c for group_caps in caps for c in group_caps)
    got = disjoint_path_rates(paths, min_cap, congestion, saturation)
    shares = [_group_share(c, n, congestion, saturation) for c, n in paths]
    if min_cap < max(shares):
        assert got is None  # a cap may bind: maxmin_rates solves it
        return
    # Bit-identical, not approximately equal.
    assert [got[g].hex() for g, _ in flows] == [expected[f].hex() for _, f in flows]


def test_disjoint_groups_within_tolerance_freeze_together():
    """Two groups whose shares differ by less than the tight tolerance
    both freeze at the lower share, as one ``maxmin_rates`` round does;
    a group far above freezes at its own share."""
    low = 3.0
    near = low * (1.0 + 1e-13)
    assert disjoint_path_rates([([low], 1), ([near], 1), ([9.0], 1)], math.inf) == [
        low, low, 9.0
    ]
    assert disjoint_path_rates([([low], 1), ([9.0], 1)], 4.0) is None


def _union_run(kernel, groups, congestion):
    """Admit link-disjoint single-path groups, then change every link's
    capacity at once so one re-rate solves their union."""
    env = Environment()
    fabric = kernel(env, NetworkSpec(flow_congestion=congestion))
    done = {}
    paths = []
    for g, (link_caps, n) in enumerate(groups):
        path = [fabric.add_link(f"g{g}l{i}", c) for i, c in enumerate(link_caps)]
        paths.append(path)
        for k in range(n):
            label = f"g{g}f{k}"
            event = fabric.transfer(path, 10.0 + k, label=label)
            event.callbacks.append(lambda ev, label=label: done.__setitem__(label, ev.value))

    def slow_down(_timer):
        for path in paths:
            for link in path:
                link.fault_factor = 0.5
        fabric.capacities_changed([link for path in paths for link in path])

    env.call_after(0.5, slow_down)
    env.run()
    return done, fabric.bytes_delivered


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([4.0, 4.0 * (1 + 1e-13), 6.0, 9.0]),
                     min_size=1, max_size=3),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=2, max_size=5,
    ),
    st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=60, deadline=None)
def test_fabric_union_rerate_matches_the_oracle(groups, congestion):
    """A capacity change seeding every link re-rates the union of the
    groups in one closed-form solve; per-flow completion times stay
    bit-identical to the scalar oracle's one water-fill per event."""
    expected, expected_bytes = _union_run(ScalarFabric, groups, congestion)
    got, got_bytes = _union_run(Fabric, groups, congestion)
    assert got == expected
    assert got_bytes == pytest.approx(expected_bytes, rel=1e-12)


# ------------------------------------------------ write-through capacities
def _network():
    env = Environment()
    cluster = Cluster(ClusterSpec.paper_testbed())
    return env, cluster, IBNetwork(env, cluster, NetworkSpec(flow_congestion=0.0))


def _lone_flow_rate(env, net, src=0, dst=1):
    """The rate a lone flow from ``src`` to ``dst`` is given when admitted
    now; the flow then runs to completion."""
    net.transfer_inter(src, dst, 1e6)
    (flow,) = net.fabric.active_flows
    rate = flow.rate
    env.run()
    return rate


def _nic_rate(net, node, progress=1.0):
    """A NIC link's capacity computed from its inputs at read time."""
    spec = net.spec
    return spec.nic_bw * spec.nic_dvfs_factor(node.mean_dvfs_ratio) * progress


def test_frequency_write_reaches_cached_nic_capacity():
    """``Cluster.set_all`` changes frequencies without ``dvfs_changed``;
    a flow admitted afterwards must still see the slower NICs."""
    env, cluster, net = _network()
    at_fmax = _lone_flow_rate(env, net)  # caches both NIC capacities
    assert at_fmax == _nic_rate(net, cluster.nodes[0])
    cluster.set_all(env.now, frequency_ghz=cluster.cores[0].spec.fmin)
    at_fmin = _lone_flow_rate(env, net)
    assert at_fmin == _nic_rate(net, cluster.nodes[0])
    assert at_fmin < at_fmax


def test_fault_factor_write_reaches_cached_capacity():
    env, cluster, net = _network()
    healthy = _lone_flow_rate(env, net)
    net.nic_up(0).fault_factor = 0.5  # no capacities_changed
    assert _lone_flow_rate(env, net) == healthy * 0.5
    net.nic_up(0).fault_factor = 1.0
    assert _lone_flow_rate(env, net) == healthy


def test_blocking_progress_factor_reaches_cached_capacity():
    """A blocking-mode job joining a session whose NIC capacities were
    already read lowers them for the next flow."""
    session = SimSession(network_spec=NetworkSpec(flow_congestion=0.0))
    net = session.net
    node = session.cluster.nodes[0]
    assert _lone_flow_rate(session.env, net) == _nic_rate(net, node)
    MpiJob(16, session=session, progress=ProgressMode.BLOCKING)
    factor = net.spec.blocking_nic_factor
    assert net.progress_factor[0] == factor
    assert _lone_flow_rate(session.env, net) == _nic_rate(net, node, factor)


def test_capacities_changed_rereads_idle_capacity_fn_links():
    """A generic ``capacity_fn`` input has no setter: ``capacities_changed``
    drops the cache even when no flow is in flight."""
    env, cluster, net = _network()
    state = {"factor": 1.0}
    fabric = net.fabric
    link = fabric.add_link("probe", 1e9, capacity_fn=lambda: 1e9 * state["factor"])
    assert link.capacity == 1e9
    state["factor"] = 0.25
    fabric.capacities_changed([link])
    assert link.capacity == 0.25e9
    state["factor"] = 0.5
    fabric.capacities_changed()
    assert link.capacity == 0.5e9


def test_every_network_on_a_cluster_follows_its_frequencies():
    env = Environment()
    cluster = Cluster(ClusterSpec.paper_testbed())
    nets = [IBNetwork(env, cluster) for _ in range(2)]
    before = [net.nic_dn(3).capacity for net in nets]
    for core in cluster.nodes[3].cores:
        core.set_frequency(core.spec.fmin, 0.0)
    for net, old in zip(nets, before):
        assert net.nic_dn(3).capacity == _nic_rate(net, cluster.nodes[3]) < old
        assert net.nic_dn(2).capacity == old


def test_cluster_keeps_no_network_alive():
    """The cores reach their NIC links only weakly, so dropping a network
    frees its links without a cyclic collection (a NIC link's capacity
    function refers to its node)."""
    cluster = Cluster(ClusterSpec.paper_testbed())
    net = IBNetwork(Environment(), cluster)
    links = [weakref.ref(net.nic_up(0)), weakref.ref(net.nic_dn(0))]
    gc.disable()
    try:
        del net
        assert [ref() for ref in links] == [None, None]
    finally:
        gc.enable()
    cluster.set_all(0.0, frequency_ghz=cluster.cores[0].spec.fmin)


def test_progress_factor_is_read_only():
    env, cluster, net = _network()
    with pytest.raises(TypeError):
        net.progress_factor[0] = 0.5


# ---------------------------------------------------------- cached routes
def _expected_route(net, src, dst):
    spec = net.cluster.spec
    names = [f"nic_up:{src}"]
    if not math.isinf(net.spec.switch_oversubscription):
        names.append("switch")
    src_rack, dst_rack = spec.rack_of_node(src), spec.rack_of_node(dst)
    if src_rack != dst_rack:
        names += [f"rack_up:{src_rack}", f"rack_dn:{dst_rack}"]
    names.append(f"nic_dn:{dst}")
    return tuple(net.fabric.link(name) for name in names)


@pytest.mark.parametrize(
    "racks, oversubscription", [(1, math.inf), (1, 4.0), (2, math.inf), (4, math.inf)]
)
def test_cached_routes_match_the_topology(racks, oversubscription):
    cluster = Cluster(ClusterSpec(nodes=8, racks=racks))
    net = IBNetwork(
        Environment(), cluster,
        NetworkSpec(switch_oversubscription=oversubscription),
    )
    for src in range(8):
        for dst in range(8):
            if src == dst:
                continue
            path = net.inter_node_path(src, dst)
            assert path == _expected_route(net, src, dst)
            assert net.inter_node_path(src, dst) is path
        assert net.loopback_path(src) == (net.nic_up(src), net.nic_dn(src))
        assert net.shm_path(src) == (net.mem(src),)
