"""``attack_shootout``: the five attacks x every registered defense.

Many short, flush- and squash-heavy runs on the ``paper`` machine, so
``Processor`` construction, the defense hooks and ``slh``'s program
transform weigh far more than in ``fig5_sweep``.  The seed picks the
order in which the secret values (1..15) are swept; a pass is the full
attack x defense matrix for one secret, and passes repeat until the
run's time is used.
"""
from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List, Tuple

from repro.attacks.harness import run_attack
from repro.attacks.layout import AttackLayout
from repro.core.defense import defense_names
from repro.core.policy import SecurityConfig
from repro.experiments.shootout import ATTACK_SUITE
from repro.params import paper_config

from .common import (
    ROOT,
    Tally,
    WorkloadResult,
    another_pass,
    load_reference,
    median,
    report_digest,
    tail,
)

NAME = "attack_shootout"
#: Candidate values of the side channel (the shootout's layout).
N_VALUES = 16
SECRETS = tuple(range(1, N_VALUES))
BASELINE_PATH = os.path.join(ROOT, "benchmarks", "BENCH_shootout.json")


def leak_matrix() -> Dict[str, Dict[str, bool]]:
    """Expected leaks: ``recovered`` of the committed shootout baseline
    (a cell that recovered its secret there must recover every secret
    here, and a blocked cell must recover none)."""
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    return {defense: {attack: count == baseline["trials"][defense][attack]
                      for attack, count in row.items()}
            for defense, row in baseline["recovered"].items()}


def cells() -> List[Tuple[str, str]]:
    return [(defense, attack) for defense in defense_names()
            for attack in ATTACK_SUITE]


def setup(seed: int, seconds: float) -> Dict[str, object]:
    """Secret order and the expected leak matrix (the attack programs
    themselves are built inside each timed run: page tables are
    stateful, so every run needs a fresh one)."""
    order = list(SECRETS)
    random.Random(f"{NAME}:{seed}").shuffle(order)
    return {"secrets": order, "leaks": leak_matrix()}


def attack_run(defense: str, attack: str, secret: int):
    """One timed operation: build the attack and run it."""
    layout = AttackLayout(n_values=N_VALUES, secret_value=secret)
    return run_attack(ATTACK_SUITE[attack](layout), machine=paper_config(),
                      security=SecurityConfig.for_defense(defense))


def capture_reference() -> Dict[str, str]:
    return {
        f"{defense}/{attack}/{secret}": report_digest(
            attack_run(defense, attack, secret).report.to_dict())
        for secret in SECRETS for defense, attack in cells()
    }


def check_run(tally: Tally, reference: Dict[str, str],
              leaks: Dict[str, Dict[str, bool]], defense: str, attack: str,
              secret: int, result) -> None:
    key = f"{defense}/{attack}/{secret}"
    got = report_digest(result.report.to_dict())
    ok_digest = reference.get(key) == got
    expected = leaks[defense][attack]
    tally.check(ok_digest and result.success == expected,
                f"{NAME} {key}: digest {got} vs {reference.get(key)}, "
                f"recovered={result.success} expected leak={expected}")


def _pass(state, secret: int, tally: Tally, reference, reports,
          tracer=None) -> List[float]:
    times = []
    for defense, attack in cells():
        if tracer is not None:
            tracer.run_id = f"{defense}/{attack}/{secret}"
        started = time.perf_counter()
        result = attack_run(defense, attack, secret)
        times.append(time.perf_counter() - started)
        check_run(tally, reference, state["leaks"], defense, attack, secret,
                  result)
        reports.append(result.report)
    return times


def measure(state, seed: int, seconds: float, tally: Tally
            ) -> WorkloadResult:
    reference = load_reference()[NAME]
    reports: List[object] = []
    times: List[float] = []
    secrets = list(state["secrets"])
    walls: List[float] = []
    started = time.perf_counter()
    while len(walls) < len(secrets) and another_pass(started, seconds,
                                                       walls):
        began = time.perf_counter()
        times.extend(_pass(state, secrets[len(walls)], tally, reference,
                           reports))
        walls.append(time.perf_counter() - began)
    op_ms = [t * 1000.0 for t in times]
    tail_ms, tail_pct, tail_n = tail(op_ms)
    p50 = median(op_ms)
    return WorkloadResult(
        tally=tally,
        metrics={
            "throughput": (len(times) / sum(times), "1/s"),
            "p50_ms": (p50, "ms"),
            "tail_ms": (tail_ms, "ms"),
        },
        figures={
            "secrets_swept": (len(walls), "count"),
            "tail_percentile": (tail_pct, "%"),
            "tail_samples_beyond": (tail_n, "count"),
        },
    )


def traced(state, seed: int, seconds: float, tally: Tally, tracer
           ) -> Dict[str, Tuple[float, str]]:
    from .tracing import sim_layers

    reference = load_reference()[NAME]
    secret = state["secrets"][0]
    reports: List[object] = []
    plain = _pass(state, secret, tally, reference, reports)
    reports.clear()
    tracer.install_sim()
    try:
        traced_times = _pass(state, secret, tally, reference, reports, tracer)
    finally:
        tracer.uninstall()
    layers = sim_layers(tracer, reports, tally)
    layers["trace.overhead_ratio"] = (sum(traced_times) / sum(plain),
                                      "ratio")
    return layers
