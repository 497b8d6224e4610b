#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 32 --trace 0

Prints every figure by name with its unit, a ``host:`` line with the
noise probe, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Every operation's output is checked; any
mismatch makes the exit code 1.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

WORKLOADS = {
    "fig5_sweep": "perfbench.fig5",
    "attack_shootout": "perfbench.shootout",
    "certify_ladder": "perfbench.ladder",
}
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def declared_metrics(trace: bool):
    """(name, unit) of every metric BENCHMARK.json declares for the
    run's kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from perfbench import common
    from perfbench.tracing import Tracer

    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = common.process_age_s()
    setups = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = module.setup(args.seed, args.seconds)
        setups.append(time.perf_counter() - started)
    setup_s = import_s + common.median(setups)

    calib_start = common.calibration_ms()
    load_start = common.loadavg_1m()
    jiffies_start = common.cpu_jiffies()
    tally = common.Tally()
    if args.trace:
        tracer = Tracer()
        layers = module.traced(state, args.seed, args.seconds, tally,
                               tracer)
        tracer.dump(os.path.join(
            common.TRACE_DIR, f"trace-{args.workload}-{args.seed}.json"))
        result = None
    else:
        result = module.measure(state, args.seed, args.seconds, tally)
    steal = common.steal_pct(jiffies_start, common.cpu_jiffies())
    calib_end = common.calibration_ms()
    host = {"calib_start_ms": calib_start, "calib_end_ms": calib_end,
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": common.loadavg_1m(), "steal_pct": steal}

    if result is not None:
        values = {"setup_s": (setup_s, "s"),
                  "peak_rss_mb": (common.self_peak_rss_mb(), "MB"),
                  **result.metrics}
        shown = {**values, **result.figures}
    else:
        values = {
            "workloads.gen_s": (common.median(setups), "s"),
            "host.calib_start_ms": (calib_start, "ms"),
            "host.calib_end_ms": (calib_end, "ms"),
            "host.loadavg_1m": (host["loadavg_1m_end"], "load"),
            "host.steal_pct": (steal, "%"),
            **layers,
        }
        shown = values

    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'timed'}, "
          f"{args.seconds:g} s)")
    for name, (value, unit) in shown.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print("host: " + json.dumps(host, sort_keys=True))
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    metrics = {}
    for name, unit in declared_metrics(bool(args.trace)):
        value = values.get(name, (0.0, unit))[0]
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
