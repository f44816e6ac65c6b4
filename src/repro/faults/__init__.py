"""Deterministic fault/perturbation injection (ISSUE 3).

The paper's schedules — and the PR-2 governor — were built and validated
on a quiet machine: constant 12 µs transition latencies, loss-free QDR
links, no OS noise.  This package perturbs that machine *reproducibly*:
a :class:`FaultPlan` (one seed, a tuple of injectors) binds to a
:class:`~repro.sim.session.SimSession` as a :class:`FaultState` that
degrades/flaps NIC links through the fabric's incremental re-rating,
slows straggler cores, inserts OS-noise pulses into compute, and jitters
DVFS/T-state transition latencies.  Same plan ⇒ bit-identical run.

Quick start::

    from repro import FaultPlan, LinkDegrade, MpiJob, OsNoise, SimSession

    plan = FaultPlan(seed=7, injectors=(
        LinkDegrade(factor=0.5, node_fraction=0.25),
        OsNoise(period_s=1e-3, pulse_s=25e-6),
    ))
    job = MpiJob(64, session=SimSession(faults=plan))

A plan is plain data (:meth:`FaultPlan.to_dict`), so it also travels as a
sweep-cell parameter: the CLI's ``--faults`` flag parses one with
:func:`parse_fault_spec` and :func:`repro.bench.run_plan` overlays it
onto every cell, whose executor binds it to that cell's session.
"""

from .plan import (
    FaultPlan,
    FaultSpecError,
    LinkDegrade,
    LinkFlap,
    OsNoise,
    Straggler,
    TransitionJitter,
    parse_fault_spec,
)
from .state import FaultReport, FaultState

__all__ = [
    "FaultPlan",
    "FaultReport",
    "FaultSpecError",
    "FaultState",
    "LinkDegrade",
    "LinkFlap",
    "OsNoise",
    "Straggler",
    "TransitionJitter",
    "parse_fault_spec",
]
