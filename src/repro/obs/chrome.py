"""Chrome trace-event exporter (``chrome://tracing`` / Perfetto).

Converts the simulator's JSONL trace records (schema:
:mod:`repro.sim.trace`) into the Trace Event Format that Chrome's
tracing UI and https://ui.perfetto.dev load directly:

* **rank tracks** (pid ``1``) — one thread per simulated process
  (``rank0`` …; messages in flight are event callbacks, not processes,
  and appear only as flows), with a complete ("X") slice per
  resume→suspend interval, named after the event the process parked on;
* **flow tracks** (pid ``2``) — one complete slice per fabric transfer,
  built from ``flow.finish`` records (which carry start + duration; the
  1:1 seq pairing with ``flow.start`` is verified separately), packed
  greedily into lanes so concurrent flows never nest;
* **power counters** (pid ``3``) — counter ("C") tracks for mean core
  frequency, throttled-core count, in-flight flows, cumulative bytes
  delivered, the governor's slack EWMA, and the arbiter's enforced
  budget / donor count; ``fault.*`` and ``mark`` records become
  instant ("i") events;
* **job lanes** (pid ``4``) — one complete slice per co-scheduled job
  (``job.begin``/``job.end`` marks from
  :meth:`~repro.sim.session.SimSession.run_jobs`), keyed by node
  offset, carrying the job's attributed energy.

Timestamps are microseconds of *simulation* time, emitted in
non-decreasing order.  The output is a plain dict (JSON object format:
``{"traceEvents": [...]}``) so callers can serialize or post-process.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Mapping, Tuple, Union

from ..numeric import left_sum

__all__ = ["chrome_trace", "export_chrome_trace", "read_jsonl_records"]

_PID_RANKS = 1
_PID_FLOWS = 2
_PID_POWER = 3
_PID_JOBS = 4


def _us(t: float) -> float:
    return t * 1e6


class _LaneAllocator:
    """Greedy packing of [start, end) intervals into reusable lanes, so
    overlapping flows get distinct ``tid`` s (Chrome nests same-tid
    overlaps, which misrenders concurrency)."""

    def __init__(self) -> None:
        self._lane_ends: List[float] = []

    def assign(self, start: float, end: float) -> int:
        for lane, lane_end in enumerate(self._lane_ends):
            if lane_end <= start:
                self._lane_ends[lane] = end
                return lane
        self._lane_ends.append(end)
        return len(self._lane_ends) - 1


def chrome_trace(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Convert an iterable of trace-record dicts into a Chrome trace.

    Records must carry ``t`` and ``type`` (exactly what
    :class:`~repro.sim.trace.JsonlTracer` writes / what
    :func:`read_jsonl_records` yields).  Unknown record types are
    ignored, so the exporter tolerates traces from newer schemas.
    """
    events: List[Dict[str, Any]] = []
    # Per-process open slice: name -> resume time.
    open_slice: Dict[str, float] = {}
    tids: Dict[str, int] = {}
    flow_lanes = _LaneAllocator()
    # (start_us, seq, event) triples collected for deterministic lane
    # assignment by admission order, then merged into the main stream.
    flow_slices: List[Tuple[float, int, Dict[str, Any]]] = []
    core_freq: Dict[int, float] = {}
    throttled: set = set()
    active_flows = 0
    bytes_delivered = 0.0
    max_t = 0.0
    # Co-scheduled job lanes: node_offset -> (begin time, begin args).
    job_open: Dict[int, Tuple[float, Dict[str, Any]]] = {}
    job_tids: Dict[int, int] = {}

    def tid_of(process: str) -> int:
        if process not in tids:
            tids[process] = len(tids)
        return tids[process]

    def counter(t: float, name: str, value: float) -> None:
        events.append({
            "ph": "C", "pid": _PID_POWER, "tid": 0, "ts": _us(t),
            "name": name, "args": {"value": value},
        })

    for rec in records:
        t = float(rec.get("t", 0.0))
        max_t = max(max_t, t)
        rtype = rec.get("type")
        if rtype == "process.resume":
            open_slice.setdefault(rec["process"], t)
        elif rtype == "process.suspend":
            name = rec["process"]
            started = open_slice.pop(name, None)
            if started is not None:
                events.append({
                    "ph": "X", "pid": _PID_RANKS, "tid": tid_of(name),
                    "ts": _us(started), "dur": _us(t - started),
                    "name": rec.get("target", "run"), "cat": "process",
                })
        elif rtype == "flow.start":
            active_flows += 1
            counter(t, "active_flows", active_flows)
        elif rtype == "flow.finish":
            active_flows -= 1
            bytes_delivered += rec.get("delivered", 0.0)
            counter(t, "active_flows", active_flows)
            counter(t, "bytes_delivered", bytes_delivered)
            start = float(rec.get("start", t))
            seq = int(rec.get("seq", -1))
            flow_slices.append((_us(start), seq, {
                "ph": "X", "pid": _PID_FLOWS,
                "ts": _us(start), "dur": _us(rec.get("duration", t - start)),
                "name": rec.get("flow", "flow"), "cat": "flow",
                "args": {
                    "seq": seq,
                    "bytes": rec.get("bytes"),
                    "delivered": rec.get("delivered"),
                    "links": rec.get("links"),
                },
            }))
        elif rtype == "core.frequency":
            core_freq[rec["core"]] = rec["new"]
            counter(t, "mean_frequency_ghz",
                    left_sum(core_freq.values()) / len(core_freq))
        elif rtype == "core.tstate":
            if rec["new"]:
                throttled.add(rec["core"])
            else:
                throttled.discard(rec["core"])
            counter(t, "throttled_cores", len(throttled))
        elif isinstance(rtype, str) and rtype.startswith("fault."):
            events.append({
                "ph": "i", "pid": _PID_POWER, "tid": 0, "ts": _us(t),
                "s": "g", "name": rtype, "cat": "fault",
                "args": {k: v for k, v in rec.items()
                         if k not in ("t", "type")},
            })
        elif rtype == "mark":
            mark_name = rec.get("name")
            if mark_name == "governor.slack":
                ewma = rec.get("ewma_s")
                if ewma is not None:
                    counter(t, "slack_ewma_us", ewma * 1e6)
            elif mark_name == "arbiter.tick":
                budget = rec.get("budget_w")
                if budget is not None:
                    counter(t, "arbiter_budget_w", budget)
                donors = rec.get("donors")
                if donors is not None:
                    counter(t, "arbiter_donors", donors)
            elif mark_name == "job.begin":
                offset = int(rec.get("node_offset", 0))
                job_open[offset] = (t, {
                    k: v for k, v in rec.items() if k not in ("t", "type", "name")
                })
            elif mark_name == "job.end":
                offset = int(rec.get("node_offset", 0))
                begin = job_open.pop(offset, None)
                started, args = begin if begin is not None else (0.0, {})
                args.update({k: v for k, v in rec.items()
                             if k not in ("t", "type", "name")})
                if offset not in job_tids:
                    job_tids[offset] = len(job_tids)
                events.append({
                    "ph": "X", "pid": _PID_JOBS, "tid": job_tids[offset],
                    "ts": _us(started), "dur": _us(t - started),
                    "name": f"job@node{offset}", "cat": "job", "args": args,
                })
            else:
                events.append({
                    "ph": "i", "pid": _PID_POWER, "tid": 0, "ts": _us(t),
                    "s": "g", "name": rec.get("name", "mark"), "cat": "mark",
                    "args": {k: v for k, v in rec.items()
                             if k not in ("t", "type", "name")},
                })

    # A process that never suspended again ran to the end of the trace.
    for name, started in sorted(open_slice.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "X", "pid": _PID_RANKS, "tid": tid_of(name),
            "ts": _us(started), "dur": _us(max_t - started),
            "name": "run", "cat": "process",
        })

    # Lane-assign flows in admission order so the packing is stable.
    for start_us, _seq, event in sorted(flow_slices, key=lambda e: (e[0], e[1])):
        event["tid"] = flow_lanes.assign(start_us, start_us + event["dur"])
        events.append(event)

    events.sort(key=lambda e: e["ts"])

    meta: List[Dict[str, Any]] = []
    pids = [(_PID_RANKS, "ranks"), (_PID_FLOWS, "flows"), (_PID_POWER, "power")]
    if job_tids:
        pids.append((_PID_JOBS, "jobs"))
    for pid, name in pids:
        meta.append({"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                     "name": "process_name", "args": {"name": name}})
    for process, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append({"ph": "M", "pid": _PID_RANKS, "tid": tid, "ts": 0,
                     "name": "thread_name", "args": {"name": process}})
    for offset, tid in sorted(job_tids.items(), key=lambda kv: kv[1]):
        meta.append({"ph": "M", "pid": _PID_JOBS, "tid": tid, "ts": 0,
                     "name": "thread_name", "args": {"name": f"job@node{offset}"}})

    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def read_jsonl_records(fh: IO[str]) -> Iterable[Dict[str, Any]]:
    """Parse one trace record per JSONL line (blank lines skipped).

    Raises ``ValueError`` naming the offending line on corrupt input —
    a truncated *final* line (killed writer) is tolerated and dropped.
    """
    lines = fh.read().splitlines()
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if lineno == len(lines):  # torn tail from a killed writer
                break
            raise ValueError(f"corrupt trace record on line {lineno}")
    return records


def export_chrome_trace(
    source: Union[str, IO[str]],
    out_path: str,
) -> Dict[str, int]:
    """Read a JSONL trace and write a Chrome trace JSON to ``out_path``.

    Returns ``{"records": N, "events": M}`` for reporting.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            records = list(read_jsonl_records(fh))
    else:
        records = list(read_jsonl_records(source))
    trace = chrome_trace(records)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return {"records": len(records), "events": len(trace["traceEvents"])}
