"""``fig5_sweep``: the paper's Figure 5 experiment.

All 22 SPEC-like profiles x the four paper modes on the ``paper``
machine, serially in one process, modelled caches starting empty.
Profiles are split by their Table V L1 hit rate into a stall class
(below 0.90) and a busy class, so an optimisation of idle cycles shows
on one and must cost nothing on the other.  The inputs are the fixed
paper profiles; the seed only shuffles the order of the operations.
"""
from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.core.policy import EVALUATION_MODES, ProtectionMode, SecurityConfig
from repro.experiments.runner import run_benchmark
from repro.paperdata import FIGURE5_AVERAGES, TABLE5
from repro.params import paper_config
from repro.pipeline.processor import Processor
from repro.workloads import spec_names, spec_program

from .common import (
    Tally,
    WorkloadResult,
    another_pass,
    load_reference,
    median,
    per_item_medians,
    report_digest,
    tail,
)

NAME = "fig5_sweep"
#: Workload scale of the profiles (the precision study's scale).
SCALE = 0.1
#: Table V L1 hit rate below which a profile is in the stall class.
STALL_HIT_RATE = 0.90


def classes() -> Tuple[List[str], List[str]]:
    """(busy, stall) profile names, in Table V order."""
    names = spec_names()
    return ([n for n in names if TABLE5[n].l1_hit_rate >= STALL_HIT_RATE],
            [n for n in names if TABLE5[n].l1_hit_rate < STALL_HIT_RATE])


def operations() -> List[Tuple[str, str]]:
    return [(name, mode.value) for name in spec_names()
            for mode in EVALUATION_MODES]


def setup(seed: int, seconds: float) -> Dict[str, object]:
    """The 22 profile programs (fixed paper inputs; seed unused)."""
    return {name: spec_program(name, scale=SCALE) for name in spec_names()}


def simulate(program, name: str, mode: str):
    """One timed operation: build a core and run one profile."""
    cpu = Processor(program, machine=paper_config(),
                    security=SecurityConfig(mode=ProtectionMode(mode)))
    report = cpu.run()
    report.name = name
    return report


def capture_reference() -> Dict[str, str]:
    """Digest of every operation's report through the public
    ``run_benchmark`` path (written to reference.json)."""
    return {
        f"{name}/{mode}": report_digest(run_benchmark(
            name, security=SecurityConfig(mode=ProtectionMode(mode)),
            scale=SCALE).to_dict())
        for name, mode in operations()
    }


def check_report(tally: Tally, reference: Dict[str, str], key: str,
                 report_dict: Dict[str, object]) -> bool:
    got = report_digest(report_dict)
    return tally.check(reference.get(key) == got,
                       f"{NAME} {key}: report digest {got} != reference "
                       f"{reference.get(key)}")


def _order(seed: int) -> List[Tuple[str, str]]:
    order = operations()
    random.Random(f"{NAME}:{seed}").shuffle(order)
    return order


def _pass(programs, order, tally, reference, reports, tracer=None
          ) -> Dict[str, float]:
    times: Dict[str, float] = {}
    for name, mode in order:
        key = f"{name}/{mode}"
        if tracer is not None:
            tracer.run_id = key
        started = time.perf_counter()
        report = simulate(programs[name], name, mode)
        times[key] = time.perf_counter() - started
        check_report(tally, reference, key, report.to_dict())
        reports[key] = report
    return times


def paper_figures(reports) -> Dict[str, Tuple[float, str]]:
    """Simulated Figure-5 figures: TPBuf overhead and the error of the
    three average overheads against the paper's."""
    names = spec_names()

    def average_overhead(mode: str) -> float:
        return sum(reports[f"{n}/{mode}"].cycles
                   / reports[f"{n}/origin"].cycles - 1.0
                   for n in names) / len(names)

    error_pp = sum(abs(average_overhead(mode) - paper) * 100.0
                   for mode, paper in FIGURE5_AVERAGES.items()
                   ) / len(FIGURE5_AVERAGES)
    return {
        "tpbuf_overhead_pct": (
            average_overhead("cache_hit_tpbuf") * 100.0, "%"),
        "paper_error_pp": (error_pp, "pp"),
    }


def class_rates(item_s: Dict[str, float], reports, names: List[str]
                ) -> Tuple[float, float]:
    """(committed kilo-instructions per host second, host ns per
    simulated cycle) over one profile class."""
    keys = [k for k in item_s if k.split("/")[0] in names]
    host = sum(item_s[k] for k in keys)
    committed = sum(reports[k].committed for k in keys)
    cycles = sum(reports[k].cycles for k in keys)
    return committed / 1000.0 / host, host * 1e9 / cycles


def measure(programs, seed: int, seconds: float, tally: Tally
            ) -> WorkloadResult:
    """Timed passes over all 88 operations for about ``seconds``; each
    operation's host time is its median over the passes."""
    reference = load_reference()[NAME]
    order = _order(seed)
    reports: Dict[str, object] = {}
    passes: List[Dict[str, float]] = []
    walls: List[float] = []
    started = time.perf_counter()
    while another_pass(started, seconds, walls):
        began = time.perf_counter()
        passes.append(_pass(programs, order, tally, reference, reports))
        walls.append(time.perf_counter() - began)
    item_s = per_item_medians(passes)

    busy, stall = classes()
    committed = sum(r.committed for r in reports.values())
    op_ms = [v * 1000.0 for v in item_s.values()]
    tail_ms, tail_pct, tail_n = tail(op_ms)
    kips_busy, _ns = class_rates(item_s, reports, busy)
    kips_stall, _ns = class_rates(item_s, reports, stall)
    return WorkloadResult(
        tally=tally,
        metrics={
            "throughput": (committed / 1000.0 / sum(item_s.values()), "1/s"),
            "p50_ms": (median(op_ms), "ms"),
            "tail_ms": (tail_ms, "ms"),
        },
        figures={
            "sim_kips_busy": (kips_busy, "kinstr/s"),
            "sim_kips_stall": (kips_stall, "kinstr/s"),
            **paper_figures(reports),
            "passes": (len(passes), "count"),
            "tail_percentile": (tail_pct, "%"),
            "tail_samples_beyond": (tail_n, "count"),
        },
    )


def traced(programs, seed: int, seconds: float, tally: Tally, tracer
           ) -> Dict[str, Tuple[float, str]]:
    """One untraced and one traced pass over the same operations."""
    from .tracing import sim_layers

    reference = load_reference()[NAME]
    order = _order(seed)
    reports: Dict[str, object] = {}
    plain_s = _pass(programs, order, tally, reference, reports)
    tracer.install_sim()
    try:
        traced_s = _pass(programs, order, tally, reference, reports, tracer)
    finally:
        tracer.uninstall()
    busy, stall = classes()
    layers = sim_layers(tracer, list(reports.values()), tally)
    layers["pipeline.host_ns_per_cycle_busy"] = (
        class_rates(plain_s, reports, busy)[1], "ns")
    layers["pipeline.host_ns_per_cycle_stall"] = (
        class_rates(plain_s, reports, stall)[1], "ns")
    layers["trace.overhead_ratio"] = (
        sum(traced_s.values()) / sum(plain_s.values()), "ratio")
    return layers
