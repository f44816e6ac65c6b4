"""Validation of the analytical models (equations 1-4) against the
simulator at 64 processes."""

from repro.bench.experiments import plan_models_validation


def test_models_validation(report):
    headers, rows = report(
        "models_validation",
        "Models - equations (1)-(4) vs simulator (64 procs, 1MB)",
        plan_models_validation(),
    )
    for name, predicted, simulated in rows:
        assert 0.4 < predicted / simulated < 2.5, name
