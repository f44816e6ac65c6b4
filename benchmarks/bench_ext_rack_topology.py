"""Extension (paper §VIII future work): rack/topology-aware power-aware
broadcast on a 4-rack, 128-core cluster with oversubscribed uplinks."""

from repro.bench.experiments import plan_ext_racks


def test_extension_rack_topology(report):
    headers, rows = report(
        "ext_rack_topology",
        "Extension - rack-aware power-aware bcast (4 racks x 4 nodes)",
        plan_ext_racks(),
    )
    by_scheme = {r[0]: r for r in rows}
    # Power ordering holds one hierarchy level up.
    assert (
        by_scheme["Proposed"][2]
        < by_scheme["Freq-Scaling"][2]
        < by_scheme["No-Power"][2]
    )
    # Rack-level throttling keeps latency overhead bounded.
    assert by_scheme["Proposed"][1] < by_scheme["No-Power"][1] * 1.4
