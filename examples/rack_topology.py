#!/usr/bin/env python
"""Rack-aware power-aware broadcast (the paper's §VIII future work).

Builds a 4-rack, 16-node, 128-core cluster with 2:1 oversubscribed
leaf-to-spine uplinks and compares the three power schemes on a rack-aware
broadcast, where entire racks are throttled while only the four rack
leaders cross the spine.

Run:  python examples/rack_topology.py
"""

from repro import (ClusterSpec, CollectiveConfig, CollectiveEngine, MpiJob,
                   PowerMode, SimSession)

RACKED = ClusterSpec(nodes=16, racks=4)


def main() -> None:
    print("cluster: 4 racks x 4 nodes x 8 cores = 128 ranks, "
          "uplinks 2:1 oversubscribed\n")
    print(f"{'scheme':14s} {'latency':>12s} {'avg power':>11s} {'spine flows':>12s}")
    for mode in PowerMode:
        engine = CollectiveEngine(CollectiveConfig(power_mode=mode))
        job = MpiJob(128, session=SimSession(cluster_spec=RACKED),
                     collectives=engine)

        def program(ctx):
            for _ in range(4):
                yield from ctx.bcast(1 << 20)

        result = job.run(program)
        spine_flows = sum(
            n for name, n in job.net.fabric.link_flows.items()
            if name.startswith("rack_up")
        )
        print(
            f"{mode.value:14s} {result.duration_s / 4 * 1e6:9.1f} us "
            f"{result.average_power_w / 1e3:8.2f} kW {spine_flows:12d}"
        )
    print(
        "\nUnder 'proposed', whole racks sit at T7 during the inter-rack\n"
        "phase — the paper's vision of 'throttling down all the processes\n"
        "in a rack during the inter-rack communication phases' (§VIII)."
    )


if __name__ == "__main__":
    main()
