"""Generic trace replay: run an arbitrary (compute, collective) event list.

Lets users profile their own application (e.g. with mpiP or IPM), express
the per-iteration structure as a list of events, and evaluate the paper's
power-aware collectives on it without writing a rank program by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from ..numeric import left_sum
from .base import AppSpec, CollectiveCall, RankProfile


@dataclass(frozen=True)
class ComputeEvent:
    """``seconds`` of per-rank computation at fmax."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("compute time must be >= 0")


TraceEvent = Union[ComputeEvent, CollectiveCall]


def app_from_trace(
    name: str,
    n_ranks: int,
    events: Sequence[TraceEvent],
    iterations: int = 1,
    sim_iterations: int | None = None,
) -> AppSpec:
    """Build an :class:`AppSpec` from one iteration's event trace.

    Consecutive compute events are merged; collective calls keep their
    order (order does not change simulated cost within an iteration, since
    every iteration is a barrier-free sequence of the same operations).
    """
    compute_total = left_sum(
        e.seconds for e in events if isinstance(e, ComputeEvent)
    )
    calls: Tuple[CollectiveCall, ...] = tuple(
        e for e in events if isinstance(e, CollectiveCall)
    )
    if not calls and compute_total == 0:
        raise ValueError("trace contains no work")
    profile = RankProfile(
        ranks=n_ranks,
        iterations=iterations,
        sim_iterations=sim_iterations or min(iterations, 4),
        compute_per_iter_s=compute_total,
        calls_per_iter=calls,
    )
    return AppSpec(name=name, variants={n_ranks: profile})
