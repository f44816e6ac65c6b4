"""Counting probes and the span clock, installed on public names only.

Two instruments, both attached from outside the program by rebinding
public classes' methods and public module-level functions:

* :class:`Counters` -- exact per-layer counts for every repetition.  It
  hooks only calls that are rare or cheap next to the work they start
  (a session's ``finish_run``, a fabric ``transfer``, a ``Core.set_*``
  call, a ``MessageEngine`` construction, ``execute_cell`` and
  ``ResultCache.put``) and reads the rest from public counters once per
  finished session.
* :class:`SpanClock` -- per-layer self time for the traced run.  Every
  wrapped call switches the clock to its layer and back; time is
  charged to whichever layer is innermost, so the self times of all
  layers plus the time outside any span add up to the traced wall time
  by construction.

No private name (leading underscore) is ever hooked: a later change may
rename internals freely without silently blinding the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Layer buckets of the span clock.  ``collectives`` and ``apps`` run
#: inside rank processes, so they are charged to ``mpi``.
PACKAGE_LAYER = {
    "sim": "sim",
    "mpi": "mpi",
    "collectives": "mpi",
    "apps": "mpi",
    "network": "network",
    "power": "power",
    "runtime": "runtime",
    "faults": "faults",
    "runner": "runner",
    "campaign": "campaign",
}

#: Bucket of time spent outside every span.
OUTSIDE = "outside"

#: Per-layer count names, in report order.
COUNT_NAMES = (
    "sim.events",
    "mpi.messages",
    "network.flows",
    "network.rerate_calls",
    "network.flows_rerated",
    "cluster.state_changes",
    "power.segments",
    "runtime.calls_observed",
    "runtime.waits_observed",
    "runtime.timers_armed",
    "runtime.drops",
    "faults.noise_pulses",
    "faults.jittered_transitions",
    "runner.cells",
    "runner.store_writes",
)


def _check_public(name: str) -> None:
    if name.startswith("_") and name != "__init__":
        raise ValueError(f"refusing to hook private name {name!r}")


def public_methods(cls: type) -> List[str]:
    """Names of the plain public methods ``cls`` has (own or inherited)."""
    names = []
    for name in dir(cls):
        if name.startswith("_"):
            continue
        if inspect.isfunction(inspect.getattr_static(cls, name)):
            names.append(name)
    return names


def patch_method(cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``cls.name`` by ``make(original)`` on ``cls`` itself."""
    _check_public(name)
    original = inspect.getattr_static(cls, name)
    if not inspect.isfunction(original):
        raise TypeError(f"{cls.__name__}.{name} is not a plain method")
    setattr(cls, name, make(original))


def patch_function(module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
    """Replace the public function ``module.name`` everywhere it is bound.

    Modules that imported the function by name hold their own reference,
    so every loaded ``repro`` module whose attribute ``name`` is the
    original object gets the replacement too.
    """
    _check_public(name)
    original = getattr(module, name)
    replacement = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, replacement)


# ---------------------------------------------------------------------
# Exact counts (every repetition, traced or not)
# ---------------------------------------------------------------------
class Counters:
    """Per-repetition counts plus the two simulation invariants."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        self.flows_started = 0
        self.flows_finished = 0
        self.sessions = 0
        #: One message per finished session that broke an invariant.
        self.violations: List[str] = []
        #: Message engines whose session has not finished yet.
        self._engines: List[Any] = []

    def snapshot(self) -> Dict[str, int]:
        counts = dict(self.counts)
        if self._engines:
            self.violations.append(
                f"{len(self._engines)} message engine(s) never reached finish_run"
            )
        return counts

    def add_reports(self, governor: Optional[dict], faults: Optional[dict]) -> None:
        """Fold one cell's governor/fault report dicts into the counts."""
        counts = self.counts
        if governor:
            for key in ("calls_observed", "waits_observed", "timers_armed", "drops"):
                counts["runtime." + key] += int(governor[key])
        if faults:
            for key in ("noise_pulses", "jittered_transitions"):
                counts["faults." + key] += int(faults[key])

    # -- hooks -------------------------------------------------------------
    def install(self, repro: Dict[str, Any]) -> None:
        """Hook the counting points; ``repro`` maps names to the classes
        and modules (see :func:`load_targets`)."""
        on_flow_done = self._flow_done

        def count_transfer(original):
            @functools.wraps(original)
            def transfer(fabric, *args, **kwargs):
                self.counts["network.flows"] += 1
                self.flows_started += 1
                event = original(fabric, *args, **kwargs)
                if event.callbacks is None:  # already processed
                    on_flow_done(event)
                else:
                    event.callbacks.append(on_flow_done)
                return event
            return transfer

        patch_method(repro["fabric_cls"], "transfer", count_transfer)

        def count_call(key):
            def make(original):
                @functools.wraps(original)
                def counted(*args, **kwargs):
                    self.counts[key] += 1
                    return original(*args, **kwargs)
                return counted
            return make

        core_cls = repro["Core"]
        for name in public_methods(core_cls):
            if name.startswith("set_"):
                patch_method(core_cls, name, count_call("cluster.state_changes"))
        patch_method(repro["ResultCache"], "put", count_call("runner.store_writes"))
        patch_function(repro["runner"], "execute_cell", count_call("runner.cells"))

        def register_engine(original):
            @functools.wraps(original)
            def init(engine, *args, **kwargs):
                original(engine, *args, **kwargs)
                self._engines.append(engine)
            return init

        patch_method(repro["MessageEngine"], "__init__", register_engine)

        def harvest_session(original):
            @functools.wraps(original)
            def finish_run(session, *args, **kwargs):
                result = original(session, *args, **kwargs)
                self._harvest(session)
                return result
            return finish_run

        patch_method(repro["SimSession"], "finish_run", harvest_session)

    def _flow_done(self, _event) -> None:
        self.flows_finished += 1

    def _harvest(self, session) -> None:
        """Read one finished session's public counters and check the
        energy and flow invariants."""
        counts = self.counts
        self.sessions += 1
        env = session.env
        fabric = session.net.fabric
        counts["sim.events"] += env.events_processed
        counts["network.rerate_calls"] += fabric.rerate_calls
        counts["network.flows_rerated"] += fabric.flows_rerated
        accountant = session.accountant
        counts["power.segments"] += len(accountant.segments)
        mine = [e for e in self._engines if e.env is env]
        self._engines = [e for e in self._engines if e.env is not env]
        counts["mpi.messages"] += sum(e.messages_sent for e in mine)

        per_core = sum(
            accountant.core_energy_j(core.core_id) for core in session.cluster.cores
        )
        base = accountant.node_base_energy_j()
        total = accountant.total_energy_j()
        if not math.isclose(per_core + base, total, rel_tol=1e-12, abs_tol=1e-12):
            self.violations.append(
                f"session {self.sessions}: per-core {per_core!r} J + node base "
                f"{base!r} J != total {total!r} J"
            )
        if self.flows_started != self.flows_finished:
            self.violations.append(
                f"session {self.sessions}: {self.flows_started} flows started, "
                f"{self.flows_finished} finished"
            )


# ---------------------------------------------------------------------
# Span clock (traced run only)
# ---------------------------------------------------------------------
def layer_of_module(module: Optional[str]) -> str:
    """Layer bucket of a ``repro.<package>...`` module name."""
    if not module or not module.startswith("repro."):
        return "other"
    return PACKAGE_LAYER.get(module.split(".")[1], "other")


def layer_of_callback(callback: Callable) -> str:
    return layer_of_module(getattr(callback, "__module__", None))


def layer_of_generator(generator: Any) -> str:
    frame = getattr(generator, "gi_frame", None)
    if frame is None:
        return "other"
    return layer_of_module(frame.f_globals.get("__name__"))


class SpanClock:
    """Exclusive per-layer wall clock driven by span enter/leave."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self._stack: List[str] = []
        self._layer = OUTSIDE
        self._since = 0.0

    def start(self) -> None:
        self.self_s = {}
        self._stack = []
        self._layer = OUTSIDE
        self._since = time.perf_counter()

    def stop(self) -> Dict[str, float]:
        self._charge()
        if self._stack:
            raise RuntimeError(f"unbalanced spans at stop: {self._stack}")
        return dict(self.self_s)

    def _charge(self) -> None:
        now = time.perf_counter()
        self.self_s[self._layer] = self.self_s.get(self._layer, 0.0) + (now - self._since)
        self._since = now

    def enter(self, layer: str) -> None:
        self._charge()
        self._stack.append(self._layer)
        self._layer = layer

    def leave(self) -> None:
        self._charge()
        self._layer = self._stack.pop()

    # -- wrappers ------------------------------------------------------------
    def timed(self, layer: str) -> Callable[[Callable], Callable]:
        """Wrapper factory: time calls of a function in ``layer``.  A
        generator function is timed per resume, not when it is created."""
        enter, leave, timed_generator = self.enter, self.leave, self.timed_generator

        def make(original):
            if inspect.isgeneratorfunction(original):
                @functools.wraps(original)
                def gen_wrapper(*args, **kwargs):
                    return timed_generator(original(*args, **kwargs), layer)
                return gen_wrapper

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    leave()
            return wrapper

        return make

    def timed_generator(self, generator, layer: str):
        """Drive ``generator`` with every resume charged to ``layer``;
        forwards values, exceptions and ``close()`` like ``yield from``."""
        enter, leave = self.enter, self.leave
        resume = generator.send
        value: Any = None
        while True:
            enter(layer)
            try:
                target = resume(value)
            except StopIteration as stop:
                leave()
                return stop.value
            except BaseException:
                leave()
                raise
            leave()
            try:
                value = yield target
                resume = generator.send
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # thrown in by the engine: forward
                value = exc
                resume = generator.throw

    def timed_callback(self, callback: Callable) -> Callable:
        if getattr(callback, "perfbench_span", False):
            return callback
        enter, leave = self.enter, self.leave
        layer = layer_of_callback(callback)

        def fire(*args, **kwargs):
            enter(layer)
            try:
                return callback(*args, **kwargs)
            finally:
                leave()

        fire.perfbench_span = True
        return fire

    # -- installation ----------------------------------------------------------
    def install(self, repro: Dict[str, Any]) -> None:
        """Wrap the public names the per-layer self times come from."""
        timed, timed_callback = self.timed, self.timed_callback
        env_cls = repro["Environment"]
        patch_method(env_cls, "step", timed("sim"))

        timed_generator = self.timed_generator

        def wrap_process(original):
            @functools.wraps(original)
            def process(env, generator, *args, **kwargs):
                return original(
                    env, timed_generator(generator, layer_of_generator(generator)),
                    *args, **kwargs,
                )
            return process

        patch_method(env_cls, "process", wrap_process)

        def wrap_scheduler(original):
            @functools.wraps(original)
            def schedule(owner, *args, **kwargs):
                if "callback" in kwargs:
                    kwargs["callback"] = timed_callback(kwargs["callback"])
                else:
                    args = args[:-1] + (timed_callback(args[-1]),)
                return original(owner, *args, **kwargs)
            return schedule

        for name in ("defer", "call_at", "call_after"):
            patch_method(env_cls, name, wrap_scheduler)
        for name in ("call_at", "call_after"):
            patch_method(repro["CoalescedTimers"], name, wrap_scheduler)

        for cls in (repro["fabric_cls"], repro["IBNetwork"]):
            for name in public_methods(cls):
                patch_method(cls, name, timed("network"))
        core_cls = repro["Core"]
        for name in public_methods(core_cls):
            if name.startswith("set_"):
                patch_method(core_cls, name, timed("power"))
        patch_method(repro["EnergyAccountant"], "finalize", timed("power"))
        patch_method(repro["PowerMeter"], "sample", timed("power"))
        for name in public_methods(repro["Governor"]):
            patch_method(repro["Governor"], name, timed("runtime"))
        for name in public_methods(repro["FaultState"]):
            patch_method(repro["FaultState"], name, timed("faults"))

        patch_function(repro["runner"], "execute_cell", timed("runner"))
        patch_function(repro["runner"], "cache_key", timed("runner"))
        for name in ("get", "put", "contains"):
            patch_method(repro["ResultCache"], name, timed("runner.store"))
        patch_function(repro["campaign"], "expand", timed("campaign.expand"))
        patch_function(repro["campaign"], "render_artifacts", timed("campaign.render"))
        patch_function(repro["campaign"], "run_campaign", timed("campaign"))


def load_targets() -> Dict[str, Any]:
    """Import the program and collect the public classes and modules the
    probes hook.  The fabric class is whatever a default session builds."""
    import repro.campaign
    import repro.runner
    from repro.cluster.cpu import Core
    from repro.faults.state import FaultState
    from repro.mpi.p2p import MessageEngine
    from repro.network.ibnet import IBNetwork
    from repro.power.accounting import EnergyAccountant
    from repro.power.meter import PowerMeter
    from repro.runtime.governor import Governor
    from repro.sim.engine import CoalescedTimers, Environment
    from repro.sim.session import SimSession

    return {
        "runner": repro.runner,
        "campaign": repro.campaign,
        "Core": Core,
        "FaultState": FaultState,
        "MessageEngine": MessageEngine,
        "IBNetwork": IBNetwork,
        "fabric_cls": type(SimSession(keep_segments=False).net.fabric),
        "EnergyAccountant": EnergyAccountant,
        "PowerMeter": PowerMeter,
        "ResultCache": repro.runner.ResultCache,
        "Governor": Governor,
        "Environment": Environment,
        "CoalescedTimers": CoalescedTimers,
        "SimSession": SimSession,
    }
