#!/usr/bin/env python
"""Gate the kernel-scaling benchmarks in CI.

Usage::

    python benchmarks/check_kernel_scaling.py BASELINE.txt FRESH.txt \
        [--max-regression 0.20] [--kernel-json results/BENCH_kernel.json \
         --min-speedup 5.0] [--power-json results/BENCH_power.json \
         --min-power-speedup 5.0]

Three independent gates:

* **Incremental re-rating regression** — both positional files are
  ``results/kernel_scaling.txt`` reports; the number under test is the
  trailing ``speedup (same horizon): N.Nx`` note.  Fails when the fresh
  speedup regresses by more than the allowed fraction.
* **Vectorized kernel** (``--kernel-json``) — reads the
  ``BENCH_kernel.json`` report emitted by ``bench_kernel_scaling.py``
  and fails unless the vectorized kernel is at least ``--min-speedup``
  faster than the scalar oracle on the gated (windowed) alltoall *and*
  produced byte-identical results.
* **Columnar power path** (``--power-json``) — reads the
  ``BENCH_power.json`` report emitted by ``bench_power_path.py`` and
  fails unless the columnar accountant + vectorized meter replayed the
  governed/faulted mutation stream at least ``--min-power-speedup``
  faster than the object-segment oracle with byte-identical energies
  and traces, and the meter's fold peaked at no more than
  :data:`MAX_METER_PEAK_MIB` of tracemalloc.
* **Power-budget arbiter** (``--arbiter-json``) — reads the
  ``BENCH_arbiter.json`` report emitted by ``bench_ext_arbiter.py`` and
  fails unless the redistribute policy beat the uniform split on
  makespan at the same global cap, per-job energy attribution summed
  exactly to the accountant total, and the re-run was byte-identical.
"""

import argparse
import json
import re
import sys

#: Ceiling on the power report's meter fold peak (tracemalloc, MiB).
MAX_METER_PEAK_MIB = 8.0

SPEEDUP_RE = re.compile(r"speedup \(same horizon\):\s*([0-9.]+)x")


def read_speedup(path: str) -> float:
    with open(path) as fh:
        text = fh.read()
    match = SPEEDUP_RE.search(text)
    if match is None:
        sys.exit(f"{path}: no 'speedup (same horizon)' note found")
    return float(match.group(1))


def check_kernel_json(path: str, min_speedup: float) -> bool:
    """Gate the vectorized-kernel report; returns True when it passes."""
    with open(path) as fh:
        report = json.load(fh)
    speedup = report["vector_speedup"]
    identical = report["identical"]
    ok = identical and speedup >= min_speedup
    verdict = "OK" if ok else "FAIL"
    print(
        f"vector kernel: {speedup:.1f}x vs scalar "
        f"(floor {min_speedup:.1f}x), identical={identical} -> {verdict}"
    )
    return ok


def check_power_json(path: str, min_speedup: float) -> bool:
    """Gate the columnar power-path report; returns True when it passes."""
    with open(path) as fh:
        report = json.load(fh)
    speedup = report["power_speedup"]
    identical = report["identical"]
    peak = report["meter"]["peak_mib"]
    ok = identical and speedup >= min_speedup and peak <= MAX_METER_PEAK_MIB
    verdict = "OK" if ok else "FAIL"
    print(
        f"power path: {speedup:.1f}x vs object oracle "
        f"(floor {min_speedup:.1f}x), meter peak {peak:.2f} MiB "
        f"(ceiling {MAX_METER_PEAK_MIB:.1f} MiB), identical={identical} "
        f"-> {verdict}"
    )
    return ok


def check_arbiter_json(path: str) -> bool:
    """Gate the power-budget arbiter report; returns True when it passes."""
    with open(path) as fh:
        report = json.load(fh)
    speedup = report["makespan_speedup"]
    exact = report["attribution_exact"]
    identical = report["identical"]
    ok = exact and identical and speedup > 1.0
    verdict = "OK" if ok else "FAIL"
    print(
        f"arbiter: redistribute vs uniform makespan {speedup:.2f}x "
        f"(floor >1.00x) on {report['scenario']['n_nodes']} nodes, "
        f"attribution_exact={exact}, identical={identical} -> {verdict}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional drop vs baseline (default 0.20)")
    parser.add_argument("--kernel-json", default=None,
                        help="BENCH_kernel.json report to gate (optional)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="vectorized-kernel speedup floor (default 5.0)")
    parser.add_argument("--power-json", default=None,
                        help="BENCH_power.json report to gate (optional)")
    parser.add_argument("--min-power-speedup", type=float, default=5.0,
                        help="columnar power-path speedup floor (default 5.0)")
    parser.add_argument("--arbiter-json", default=None,
                        help="BENCH_arbiter.json report to gate (optional)")
    args = parser.parse_args(argv)

    baseline = read_speedup(args.baseline)
    fresh = read_speedup(args.fresh)
    floor = baseline * (1.0 - args.max_regression)
    ok = fresh >= floor
    verdict = "OK" if ok else "REGRESSION"
    print(
        f"kernel-scaling speedup: baseline {baseline:.1f}x, fresh {fresh:.1f}x, "
        f"floor {floor:.1f}x -> {verdict}"
    )
    if args.kernel_json is not None:
        ok = check_kernel_json(args.kernel_json, args.min_speedup) and ok
    if args.power_json is not None:
        ok = check_power_json(args.power_json, args.min_power_speedup) and ok
    if args.arbiter_json is not None:
        ok = check_arbiter_json(args.arbiter_json) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
