"""NetworkSpec: construction-time validation and the dict round trip."""

import math

import pytest

from repro.network import NetworkSpec

NAN = math.nan
INF = math.inf


@pytest.mark.parametrize(
    "field, value",
    [
        # Bandwidths: finite and positive.
        ("nic_bw", NAN),
        ("shm_bw", NAN),
        ("shm_bw_cross_socket", 0.0),
        ("mem_bw_node", INF),
        ("reduce_bw", 0.0),
        ("cpu_feed_bw", -1.0),
        # Switch and rack shape.
        ("switch_oversubscription", 0.0),
        ("switch_oversubscription", NAN),
        ("rack_uplink_factor", -1.0),
        ("rack_uplink_factor", INF),
        # Latencies and overheads: finite and non-negative.
        ("inter_node_latency", -1e-3),
        ("shm_latency", NAN),
        ("o_send", -1e-7),
        ("o_recv", INF),
        ("spin_window", -1e-6),
        ("interrupt_latency", -1e-6),
        ("resched_latency", NAN),
        ("rndv_rtt_factor", -1.0),
        # Congestion model.
        ("flow_congestion", -0.05),
        ("flow_congestion_saturation", -1),
        # Fractions and chunking.
        ("mem_dvfs_alpha", 1.5),
        ("mem_dvfs_alpha", -0.1),
        ("blocking_nic_factor", 0.0),
        ("blocking_nic_factor", 1.2),
        ("blocking_chunk", 0),
    ],
)
def test_invalid_field_fails_at_construction_naming_it(field, value):
    """Each of these used to construct and then hang, return an empty
    run, or die mid-run (negative delay, division by zero)."""
    with pytest.raises(ValueError, match=rf"NetworkSpec\.{field} must be"):
        NetworkSpec(**{field: value})


def test_boundary_values_construct_and_round_trip():
    # rack_uplink_factor=0 is legal on a flat switch; racked clusters are
    # refused by check_session_specs instead.
    spec = NetworkSpec(rack_uplink_factor=0.0, flow_congestion=0.0,
                       inter_node_latency=0.0, mem_dvfs_alpha=1.0,
                       blocking_nic_factor=1.0)
    data = spec.to_dict()
    # The pinned compatibility key the cache's environment signature hashes.
    assert data["incremental_rerate"] is True
    assert NetworkSpec.from_dict(data) == spec


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vectorized": False}, "unknown keys vectorized"),
        ({"nic_bw": 3e9, "bogus": 1, "also_bogus": 2},
         "unknown keys also_bogus, bogus"),
        ({"incremental_rerate": False}, "whole-fabric re-rating was removed"),
    ],
    ids=["stale-vectorized", "unknown", "incremental-false"],
)
def test_from_dict_rejects_stale_and_unknown_keys(data, message):
    with pytest.raises(ValueError, match=message):
        NetworkSpec.from_dict(data)
