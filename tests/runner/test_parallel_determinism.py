"""End-to-end determinism: experiments at --jobs 4 == --jobs 1.

The acceptance claim of the parallel runner: for a governed experiment
and a fault-perturbed experiment, the JSON-serialised result series
produced with four worker processes is byte-identical to the inline
series.  Cells carry their governor config and fault-plan seed inside
the spec, so a worker process reconstructs exactly the substrate the
inline path builds.
"""

import json

import pytest

from repro.bench import run_plan
from repro.bench.experiments import plan_ext_faults, plan_ext_governor_alltoall
from repro.runner import clear_memo


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _series(plan_fn, jobs, **kwargs):
    """Run an experiment through the runner and canonicalise its rows."""
    (headers, rows, _notes), _ = run_plan(plan_fn(**kwargs), jobs=jobs,
                                          cache=None)
    return json.dumps(
        {"headers": headers, "rows": [list(r) for r in rows]},
        sort_keys=True,
    )


def test_governor_experiment_jobs4_matches_jobs1():
    kwargs = {"sizes": (64 << 10,), "iterations": 2, "n_ranks": 32}
    inline = _series(plan_ext_governor_alltoall, 1, **kwargs)
    clear_memo()  # jobs=4 must recompute, not replay the memo
    parallel = _series(plan_ext_governor_alltoall, 4, **kwargs)
    assert parallel == inline


def test_fault_experiment_jobs4_matches_jobs1():
    kwargs = {"sizes": (64 << 10,), "iterations": 2, "n_ranks": 32}
    inline = _series(plan_ext_faults, 1, **kwargs)
    clear_memo()
    parallel = _series(plan_ext_faults, 4, **kwargs)
    assert parallel == inline
