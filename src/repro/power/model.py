"""Instantaneous power model for cores and the system.

The per-core model (documented in DESIGN.md §5) is::

    p_core(f, T, act) = act_factor(act) · gate(T) · (p_idle + b · f³)

* ``f`` in GHz; the cubic term reflects P ∝ C·V²·f with V ∝ f on the DVFS
  ladder (the standard assumption of the paper's references [8], [9]).
* ``gate(T) = 1 − γ + γ·duty(T)`` — throttling duty-cycles the clock, but
  only a fraction γ of core power is clock-gated (uncore, caches and
  leakage keep drawing); this is why the measured saving from T7
  (12 % active) is far less than 88 % (paper Fig 7b: 1.8 → 1.6 kW).
* ``act_factor`` distinguishes a core that is polling/computing (1.0) from
  one sleeping in the kernel (blocking mode) or idle.

System power adds a constant per-node overhead (PSU, DRAM, HCA, fans),
which is what a clamp meter on the node's feed sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from ..cluster.cpu import Activity, Core
from ..cluster.specs import tstate_duty
from ..cluster.topology import Cluster


def _default_activity_factors() -> Dict[Activity, float]:
    return {
        Activity.POLLING: 1.0,
        Activity.COMPUTE: 1.0,
        Activity.BLOCKED: 0.50,
        Activity.IDLE: 0.30,
    }


@dataclass(frozen=True)
class PowerModelParams:
    """Constants of the power model; defaults come from
    :mod:`repro.power.calibration` (fitted to the paper's kW readings)."""

    #: Per-core power floor at any frequency when fully active (W).
    core_idle_w: float = 9.835
    #: Dynamic coefficient b in W/GHz³.
    core_dyn_w_per_ghz3: float = 0.803
    #: Non-CPU node power: PSU losses, DRAM, HCA, fans (W).
    node_base_w: float = 120.0
    #: γ — fraction of core power that T-state duty-cycling actually gates.
    throttle_gating: float = 0.541
    activity_factors: Mapping[Activity, float] = field(
        default_factory=_default_activity_factors
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.throttle_gating <= 1.0:
            raise ValueError("throttle_gating must be in [0, 1]")
        if self.core_idle_w < 0 or self.core_dyn_w_per_ghz3 < 0:
            raise ValueError("power coefficients must be non-negative")
        for activity in Activity:
            if activity not in self.activity_factors:
                raise ValueError(f"missing activity factor for {activity}")

    def to_dict(self) -> dict:
        """Plain-data form for sweep cells and cache keys."""
        return {
            "core_idle_w": self.core_idle_w,
            "core_dyn_w_per_ghz3": self.core_dyn_w_per_ghz3,
            "node_base_w": self.node_base_w,
            "throttle_gating": self.throttle_gating,
            "activity_factors": {
                activity.value: self.activity_factors[activity]
                for activity in Activity
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PowerModelParams":
        """Inverse of :meth:`to_dict` (omitted keys take defaults)."""
        kwargs = dict(data)
        if "activity_factors" in kwargs:
            kwargs["activity_factors"] = {
                Activity(k): v for k, v in kwargs["activity_factors"].items()
            }
        return cls(**kwargs)


class PowerModel:
    """Evaluates instantaneous power draw from core state.

    :meth:`core_power` is memoized on the ``(frequency_ghz, tstate,
    activity)`` state key — governed runs cycle through a handful of
    distinct states, so unchanged states skip the gate/cubic
    re-evaluation entirely.  A miss evaluates the same floating-point
    expression as :meth:`core_power_for`, so memoized and direct results
    are bit-identical.
    """

    def __init__(self, params: PowerModelParams | None = None):
        self.params = params or PowerModelParams()
        self._cache: Dict[tuple, float] = {}

    def full_core_power(self, freq_ghz: float) -> float:
        """Power of a fully-active, unthrottled core at ``freq_ghz`` (W)."""
        p = self.params
        return p.core_idle_w + p.core_dyn_w_per_ghz3 * freq_ghz**3

    def gate(self, tstate: int) -> float:
        """Throttle gating multiplier, 1.0 at T0 down to 1−γ·0.88 at T7."""
        p = self.params
        return 1.0 - p.throttle_gating + p.throttle_gating * tstate_duty(tstate)

    def core_power(self, core: Core) -> float:
        """Instantaneous power of ``core`` in its current state (W)."""
        key = (core.frequency_ghz, core.tstate, core.activity)
        power = self._cache.get(key)
        if power is None:
            power = self._cache[key] = self.core_power_for(*key)
        return power

    def core_power_for(
        self, freq_ghz: float, tstate: int, activity: Activity
    ) -> float:
        """Power for an explicit (f, T, activity) triple — used by the
        analytical models of :mod:`repro.models.power`."""
        act = self.params.activity_factors[activity]
        return act * self.gate(tstate) * self.full_core_power(freq_ghz)

    def system_power(self, cluster: Cluster) -> float:
        """Instantaneous whole-system draw: node overheads + all cores (W)."""
        total = self.params.node_base_w * cluster.n_nodes
        for core in cluster.cores:
            total += self.core_power(core)
        return total
