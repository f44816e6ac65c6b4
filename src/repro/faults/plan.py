"""Fault/perturbation plans: *what* to inject, fully determined by a seed.

A :class:`FaultPlan` is a frozen description of the perturbations one run
should suffer: which injectors are active, with which parameters, and the
single integer ``seed`` every random choice derives from.  Nothing here
touches a simulation — binding a plan to a live session (victim
selection, timer scheduling, the actual capacity/latency perturbations)
happens in :class:`repro.faults.state.FaultState`.

Determinism contract
--------------------
All randomness flows from ``FaultPlan.rng(*tags)``: a fresh
``random.Random`` seeded with the string ``"<seed>:<tag>:..."``.  String
seeding hashes through SHA-512 inside CPython, so substreams are stable
across platforms and interpreter runs, and tagging keeps every consumer
(victim selection, flap schedules, per-core jitter) on its own stream —
adding an injector never shifts the draws of another.  Two sessions built
from equal plans therefore perturb identically, bit for bit.

The CLI's ``--faults`` flag uses :func:`parse_fault_spec`, a tiny grammar
of ``;``-separated clauses::

    degrade:factor=0.5,frac=0.25;noise:period=500us;jitter:lo=0.5,hi=2

Times accept ``us``/``ms``/``s`` suffixes (bare numbers are seconds).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from typing import Tuple, Union

__all__ = [
    "FaultPlan",
    "FaultSpecError",
    "LinkDegrade",
    "LinkFlap",
    "OsNoise",
    "Straggler",
    "TransitionJitter",
    "parse_fault_spec",
]


class FaultSpecError(ValueError):
    """A fault plan (or its ``--faults`` spec string) is invalid."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FaultSpecError(message)


@dataclass(frozen=True)
class LinkDegrade:
    """Scale victim nodes' HCA link capacity for one contiguous window.

    Models a persistently degraded cable/port (signal-integrity retrain,
    a mis-negotiated width): every flow crossing a victim NIC sees
    ``factor`` of the nominal bandwidth from ``start_s`` for
    ``duration_s`` seconds.
    """

    factor: float = 0.5
    start_s: float = 0.0
    duration_s: float = math.inf
    node_fraction: float = 0.25

    def __post_init__(self) -> None:
        _require(0.0 < self.factor <= 1.0,
                 f"degrade: factor must be in (0, 1], got {self.factor}")
        _require(self.start_s >= 0.0,
                 f"degrade: start must be >= 0, got {self.start_s}")
        _require(self.duration_s > 0.0,
                 f"degrade: duration must be > 0, got {self.duration_s}")
        _require(0.0 < self.node_fraction <= 1.0,
                 f"degrade: frac must be in (0, 1], got {self.node_fraction}")


@dataclass(frozen=True)
class LinkFlap:
    """Transient link flaps: short deep capacity dips on victim nodes.

    Within ``[start_s, start_s + duration_s)`` each victim node's HCA
    drops to ``factor`` of nominal for ``down_s`` seconds, roughly every
    ``period_s`` (the gap between flaps is drawn uniformly from
    ``[0.5, 1.5] × period_s`` per victim, from the plan's seed).
    """

    factor: float = 0.10
    period_s: float = 10e-3
    down_s: float = 500e-6
    start_s: float = 0.0
    duration_s: float = 1.0
    node_fraction: float = 0.125

    def __post_init__(self) -> None:
        _require(0.0 < self.factor <= 1.0,
                 f"flap: factor must be in (0, 1], got {self.factor}")
        _require(self.period_s > 0.0,
                 f"flap: period must be > 0, got {self.period_s}")
        _require(self.down_s > 0.0,
                 f"flap: down must be > 0, got {self.down_s}")
        _require(self.start_s >= 0.0,
                 f"flap: start must be >= 0, got {self.start_s}")
        _require(0.0 < self.duration_s < math.inf,
                 f"flap: duration must be finite and > 0, got {self.duration_s}")
        _require(0.0 < self.node_fraction <= 1.0,
                 f"flap: frac must be in (0, 1], got {self.node_fraction}")


@dataclass(frozen=True)
class Straggler:
    """Persistently slow cores (or whole nodes): computation costs more.

    Every ``ctx.compute(s)`` on a victim core takes ``multiplier × s``
    (before DVFS/T-state scaling) — the heterogeneity Medhat et al.
    report as the common case on production clusters.
    """

    multiplier: float = 1.5
    fraction: float = 0.125
    scope: str = "core"  # "core" or "node"

    def __post_init__(self) -> None:
        _require(self.multiplier >= 1.0,
                 f"straggler: mult must be >= 1, got {self.multiplier}")
        _require(0.0 < self.fraction <= 1.0,
                 f"straggler: frac must be in (0, 1], got {self.fraction}")
        _require(self.scope in ("core", "node"),
                 f"straggler: scope must be 'core' or 'node', got {self.scope!r}")


@dataclass(frozen=True)
class OsNoise:
    """Periodic OS-noise pulses: short compute insertions on victim cores.

    Per ``period_s`` of application compute on a victim core, one extra
    ``pulse_s`` of work is inserted (daemon wake-ups, timer ticks).  The
    insertion is accrual-based — ``k`` periods of compute accumulate
    ``k`` pulses — so it composes with arbitrarily fragmented compute.
    """

    period_s: float = 1e-3
    pulse_s: float = 25e-6
    core_fraction: float = 0.25

    def __post_init__(self) -> None:
        _require(self.period_s > 0.0,
                 f"noise: period must be > 0, got {self.period_s}")
        _require(self.pulse_s > 0.0,
                 f"noise: pulse must be > 0, got {self.pulse_s}")
        _require(0.0 < self.core_fraction <= 1.0,
                 f"noise: frac must be in (0, 1], got {self.core_fraction}")


@dataclass(frozen=True)
class TransitionJitter:
    """Jitter DVFS/T-state transition latencies around the spec constant.

    The paper measures Odvfs = Othrottle = 12 µs on an unloaded machine;
    under load, transitions straggle.  Each charged transition draws a
    factor uniformly from ``[lo, hi]`` (per-core substream of the plan's
    seed) and pays ``factor ×`` the spec latency.
    """

    lo: float = 0.5
    hi: float = 2.0

    def __post_init__(self) -> None:
        _require(self.lo >= 0.0, f"jitter: lo must be >= 0, got {self.lo}")
        _require(self.hi >= self.lo,
                 f"jitter: hi must be >= lo, got lo={self.lo} hi={self.hi}")


#: Any injector a plan can carry.
Injector = Union[LinkDegrade, LinkFlap, Straggler, OsNoise, TransitionJitter]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable description of one run's perturbations."""

    seed: int = 0
    injectors: Tuple[Injector, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _require(self.seed >= 0, f"fault seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "injectors", tuple(self.injectors))
        jitters = [i for i in self.injectors if isinstance(i, TransitionJitter)]
        _require(len(jitters) <= 1, "at most one jitter injector per plan")

    def rng(self, *tags) -> random.Random:
        """A substream keyed by (seed, *tags) — see the module docstring."""
        return random.Random(":".join(str(t) for t in (self.seed, *tags)))

    def of_type(self, kind) -> Tuple[Injector, ...]:
        return tuple(i for i in self.injectors if isinstance(i, kind))

    def describe(self) -> str:
        """Human-readable one-liner (CLI summaries, trace marks)."""
        names = ",".join(type(i).__name__ for i in self.injectors) or "none"
        return f"seed={self.seed} injectors=[{names}]"

    def to_dict(self) -> dict:
        """Plain-data form (JSON-able): clause name + field values per
        injector.  Two equal plans serialize identically, so the dict is
        safe to hash into a sweep-cache key."""
        return {
            "seed": self.seed,
            "injectors": [
                {"kind": _clause_name(type(i)), **_injector_fields(i)}
                for i in self.injectors
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict` — reconstructs an equal plan (the
        determinism contract then guarantees identical perturbations).

        Raises :class:`FaultSpecError` naming every unknown top-level key
        and every unknown injector field, so a typo cannot quietly turn
        into an unperturbed or differently seeded plan."""
        problems = [
            f"unknown fault plan key {key!r} (expected 'seed', 'injectors')"
            for key in sorted(set(data) - {"seed", "injectors"})
        ]
        injectors = []
        for entry in data.get("injectors", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind not in _CLAUSES:
                raise FaultSpecError(f"unknown injector kind {kind!r}")
            injector_cls = _CLAUSES[kind][0]
            known = {f.name for f in fields(injector_cls)}
            problems += [
                f"{kind}: unknown injector field {key!r} "
                f"(expected one of {', '.join(sorted(known))})"
                for key in sorted(set(entry) - known)
            ]
            if not problems:
                injectors.append(injector_cls(**entry))
        _require(not problems, "; ".join(problems))
        return cls(seed=data.get("seed", 0), injectors=tuple(injectors))


# -- the --faults spec grammar ---------------------------------------------

_TIME_SUFFIXES = (("us", 1e-6), ("ms", 1e-3), ("s", 1.0))


def _parse_time(clause: str, key: str, text: str) -> float:
    """``"500us"`` → 5e-4; bare numbers are seconds."""
    text = text.strip().lower()
    scale = 1.0
    for suffix, factor in _TIME_SUFFIXES:
        if text.endswith(suffix):
            scale, text = factor, text[: -len(suffix)]
            break
    try:
        value = float(text) * scale
    except ValueError:
        raise FaultSpecError(
            f"{clause}: cannot parse {key}={text!r} as a time "
            "(use e.g. 500us, 2ms, 0.1s)"
        ) from None
    _require(value >= 0.0 and not math.isnan(value),
             f"{clause}: {key} must be non-negative, got {text!r}")
    return value


def _parse_float(clause: str, key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FaultSpecError(
            f"{clause}: cannot parse {key}={text!r} as a number"
        ) from None
    _require(value >= 0.0 and not math.isnan(value),
             f"{clause}: {key} must be non-negative, got {text!r}")
    return value


#: clause name → (injector class, {spec key → (field, parser)}).
_CLAUSES = {
    "degrade": (LinkDegrade, {
        "factor": ("factor", _parse_float),
        "start": ("start_s", _parse_time),
        "duration": ("duration_s", _parse_time),
        "frac": ("node_fraction", _parse_float),
    }),
    "flap": (LinkFlap, {
        "factor": ("factor", _parse_float),
        "period": ("period_s", _parse_time),
        "down": ("down_s", _parse_time),
        "start": ("start_s", _parse_time),
        "duration": ("duration_s", _parse_time),
        "frac": ("node_fraction", _parse_float),
    }),
    "straggler": (Straggler, {
        "mult": ("multiplier", _parse_float),
        "frac": ("fraction", _parse_float),
        "scope": ("scope", None),
    }),
    "noise": (OsNoise, {
        "period": ("period_s", _parse_time),
        "pulse": ("pulse_s", _parse_time),
        "frac": ("core_fraction", _parse_float),
    }),
    "jitter": (TransitionJitter, {
        "lo": ("lo", _parse_float),
        "hi": ("hi", _parse_float),
    }),
}


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a ``--faults`` spec string into a :class:`FaultPlan`.

    Grammar: ``clause[;clause...]`` where each clause is
    ``name[:key=value[,key=value...]]`` and ``name`` is one of
    ``degrade``, ``flap``, ``straggler``, ``noise``, ``jitter``.
    Omitted keys take the injector's defaults.  Raises
    :class:`FaultSpecError` with the offending clause/key named.
    """
    injectors = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        name, _, arg_text = raw.partition(":")
        name = name.strip().lower()
        if name not in _CLAUSES:
            raise FaultSpecError(
                f"unknown fault injector {name!r} "
                f"(choose from {', '.join(sorted(_CLAUSES))})"
            )
        cls, keys = _CLAUSES[name]
        kwargs = {}
        for pair in arg_text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            key = key.strip().lower()
            if not eq or key not in keys:
                raise FaultSpecError(
                    f"{name}: unknown or malformed parameter {pair!r} "
                    f"(keys: {', '.join(sorted(keys))})"
                )
            dest, parser = keys[key]
            kwargs[dest] = value.strip() if parser is None else parser(
                name, key, value
            )
        injectors.append(cls(**kwargs))
    if not injectors:
        raise FaultSpecError(f"fault spec {spec!r} names no injectors")
    return FaultPlan(seed=seed, injectors=tuple(injectors))


def _injector_fields(injector: Injector) -> dict:
    return {f.name: getattr(injector, f.name) for f in fields(injector)}


def _clause_name(cls) -> str:
    """Injector class → its spec-grammar clause name ("degrade", ...)."""
    for name, (klass, _keys) in _CLAUSES.items():
        if klass is cls:
            return name
    raise FaultSpecError(f"no clause name for {cls!r}")  # pragma: no cover
