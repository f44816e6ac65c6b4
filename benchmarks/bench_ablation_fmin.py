"""Ablation: DVFS target-frequency sweep — is the paper's "minimum
possible frequency" (§V) actually the energy-optimal choice?"""

from repro.bench.experiments import plan_ablation_fmin


def test_ablation_fmin_sweep(report):
    headers, rows = report(
        "ablation_fmin_sweep",
        "Ablation - DVFS target frequency vs energy (alltoall 1MB, 64p)",
        plan_ablation_fmin(),
        chart=dict(
            y_columns=[3],
            labels=["energy (J)"],
            title="collective energy vs DVFS target (GHz)",
        ),
    )
    energies = [row[3] for row in rows]
    # Energy decreases monotonically toward fmin...
    assert all(a <= b + 1e-9 for a, b in zip(energies, energies[1:]))
    # ...while latency grows only mildly (uncore coupling, ~10%).
    assert rows[0][1] / rows[-1][1] < 1.15
