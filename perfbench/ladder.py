"""``certify_ladder``: the full analysis ladder on every program.

taint -> loop summaries -> value-set refinement -> memory dependences
-> symbolic certification, then replay of every LEAKY witness on the
simulator.  The program set is the precision study's (12 corpus
drivers + 22 SPEC profiles at scale 0.1) plus seeded ``repro.fuzz``
programs with a planted S-Pattern, held-out inputs that change with
the seed.  The analysis layer does nearly all the work; the simulator
runs only inside replays.
"""
from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

import repro.analysis.memdep as memdep
import repro.analysis.summaries as summaries
import repro.analysis.symx as symx
import repro.analysis.taint as taint
import repro.analysis.valueset as valueset
import repro.analysis.witness as witness
from repro.analysis.corpus import (
    CORPUS_VARIANTS,
    GADGET_KINDS,
    build_corpus_variant,
    corpus_secret_words,
)
from repro.fuzz.agreement import FUZZ_MAX_DEPTH
from repro.fuzz.generator import GeneratorConfig, case_seed, generate_program
from repro.params import tiny_config
from repro.workloads import spec_names, spec_program

from .common import (
    ROOT,
    Tally,
    WorkloadResult,
    another_pass,
    median,
    per_item_medians,
    tail,
)

NAME = "certify_ladder"
BASELINE_PATH = os.path.join(ROOT, "benchmarks", "BENCH_precision.json")
#: Generated programs per pass and their shape (the fuzz certify
#: campaign's configuration).
FUZZ_PROGRAMS = 24
FUZZ_LENGTH = 20

#: Ladder stages, in order (``analysis.<stage>`` in traced runs).
STAGES = ("taint", "summaries", "valueset", "memdep", "symx", "replay")


def expected_verdicts() -> Dict[str, str]:
    """Corpus and SPEC verdicts pinned by the precision baseline."""
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    return {**baseline["verdicts"], **baseline["spec_verdicts"]}


def setup(seed: int, seconds: float) -> Dict[str, object]:
    """Build the program set: (name, group, program, secret words)."""
    with open(BASELINE_PATH) as handle:
        scale = json.load(handle)["scale"]
    programs: List[Tuple[str, str, object, Tuple[int, ...]]] = []
    for kind in GADGET_KINDS:
        for variant in CORPUS_VARIANTS:
            programs.append((f"{kind}-{variant}", "corpus",
                             build_corpus_variant(kind, variant),
                             tuple(corpus_secret_words())))
    for name in spec_names():
        programs.append((name, "spec", spec_program(name, scale=scale), ()))
    config = GeneratorConfig(secret=True, length=FUZZ_LENGTH, loops=False)
    for index in range(FUZZ_PROGRAMS):
        generated = generate_program(case_seed(seed, index), config)
        programs.append((f"fuzz-{index}", "fuzz", generated.program,
                         tuple(generated.secret_words)))
    return {"programs": programs, "verdicts": expected_verdicts()}


def ladder(program, secrets: Tuple[int, ...], name: str, group: str):
    """One timed operation: the whole ladder on one program.  Returns
    (certificate, witness replays).

    Generated programs are certified and replayed as the fuzz
    certifier-agreement campaign does (``tiny`` machine, depth
    ``FUZZ_MAX_DEPTH``), the setting under which its witnesses are
    known to agree with the simulator; the pinned programs use the
    precision study's defaults."""
    options = ({"machine": tiny_config(), "max_depth": FUZZ_MAX_DEPTH}
               if group == "fuzz" else {})
    window = taint.DEFAULT_WINDOW
    report = taint.analyze_program(program, window=window, name=name)
    loop_summaries = summaries.compute_program_summaries(program,
                                                         window=window)
    valueset.refine_report(program, report, secret_words=secrets,
                           summaries=loop_summaries)
    memdep.compute_memdep_summary(program, window=window)
    certificate = symx.certify_program(
        program, secret_words=secrets, window=window, replay=False,
        name=name, summaries=loop_summaries, **options)
    replays = [witness.replay_witness(program, leak.witness,
                                      machine=options.get("machine"))
               for leak in certificate.leaks]
    return certificate, replays


def check_program(tally: Tally, verdicts: Dict[str, str], name: str,
                  group: str, certificate, replays) -> bool:
    """Pinned programs: verdict equals the precision baseline (so never
    UNKNOWN) and every LEAKY witness replays.

    Generated programs have no pinned verdict.  A witness passes when
    its replay reproduces every predicted line, shows no line
    difference at all (the fuzz certifier-agreement oracle's explained
    precision gap), or differs in at least one predicted line (the
    leak is real; the prediction named extra lines).  It fails when
    the replay differs only in lines the witness did not predict."""
    verdict = certificate.verdict.value
    if group == "fuzz":
        bad = [replay for leak, replay in zip(certificate.leaks, replays)
               if replay.leaked_lines and not set(replay.leaked_lines)
               & set(leak.witness.predicted_lines)]
        return tally.check(not bad,
                           f"{NAME} {name}: witness replay leaked only "
                           f"unpredicted lines: {bad}")
    return tally.check(
        verdict == verdicts.get(name)
        and all(r.reproduced for r in replays),
        f"{NAME} {name}: verdict {verdict} (expected "
        f"{verdicts.get(name)}), replays reproduced "
        f"{[r.reproduced for r in replays]}")


def partial_witnesses(certificate, replays) -> int:
    """Witnesses whose replay differed but did not show every predicted
    line (accepted for generated programs; counted so they stay
    visible)."""
    return sum(1 for leak, replay in zip(certificate.leaks, replays)
               if replay.leaked_lines and not replay.reproduced)


def _pass(state, tally: Tally, results: List[tuple]) -> Dict[str, float]:
    """Time and check the ladder on every program; appends each
    program's (certificate, replays) to ``results``."""
    times: Dict[str, float] = {}
    for name, group, program, secrets in state["programs"]:
        started = time.perf_counter()
        certificate, replays = ladder(program, secrets, name, group)
        times[name] = time.perf_counter() - started
        check_program(tally, state["verdicts"], name, group, certificate,
                      replays)
        results.append((certificate, replays))
    return times


def measure(state, seed: int, seconds: float, tally: Tally
            ) -> WorkloadResult:
    passes: List[Dict[str, float]] = []
    walls: List[float] = []
    results: List[tuple] = []
    started = time.perf_counter()
    while another_pass(started, seconds, walls):
        began = time.perf_counter()
        results.clear()
        passes.append(_pass(state, tally, results))
        walls.append(time.perf_counter() - began)
    item_s = per_item_medians(passes)
    groups = {name: group for name, group, _p, _s in state["programs"]}
    # Timed figures cover the fixed programs only: which generated
    # programs a seed draws would otherwise move them by itself.
    fixed_ms = [v * 1000.0 for k, v in item_s.items() if groups[k] != "fuzz"]
    fuzz_ms = [v * 1000.0 for k, v in item_s.items() if groups[k] == "fuzz"]
    tail_ms, tail_pct, tail_n = tail(fixed_ms)
    return WorkloadResult(
        tally=tally,
        metrics={
            "throughput": (len(fixed_ms) * 1000.0 / sum(fixed_ms), "1/s"),
            "p50_ms": (median(fixed_ms), "ms"),
            "tail_ms": (tail_ms, "ms"),
        },
        figures={
            "certify_s": (median(walls), "s"),
            "certify_fixed_s": (sum(fixed_ms) / 1000.0, "s"),
            "certify_p50_ms": (median(fixed_ms), "ms"),
            "generated_p50_ms": (median(fuzz_ms), "ms"),
            "partial_witnesses": (
                sum(partial_witnesses(c, r) for c, r in results), "count"),
            "programs": (len(item_s), "count"),
            "passes": (len(passes), "count"),
            "tail_percentile": (tail_pct, "%"),
            "tail_samples_beyond": (tail_n, "count"),
        },
    )


def traced(state, seed: int, seconds: float, tally: Tally, tracer
           ) -> Dict[str, Tuple[float, str]]:
    """Untraced pass, then a pass with the analysis tiers shimmed, then
    the serve layer: the same tiers behind ``repro serve``.  The
    coverage check: the ladder enters each tier once per program and
    witness replay once per leak (tiers may also call each other;
    those nested calls are children, not entries)."""
    from . import serve_mix
    from .tracing import Tracer, analysis_layers

    results: List[tuple] = []
    plain = _pass(state, tally, [])
    tracer.install_analysis()
    try:
        traced_times = _pass(state, tally, results)
    finally:
        tracer.uninstall()
    stats = [certificate for certificate, _replays in results]
    programs = len(state["programs"])
    leaks = sum(len(certificate.leaks) for certificate in stats)
    for stage in STAGES:
        expected = leaks if stage == "replay" else programs
        seen = tracer.entries(f"analysis.{stage}")
        tally.check(seen == expected,
                    f"trace coverage: analysis.{stage} calls {seen} != "
                    f"{expected}")
    steps = sum(c.steps for c in stats)
    tried = sum(c.solver_stats.models_tried for c in stats)
    found = sum(c.solver_stats.models_found for c in stats)
    layers = analysis_layers(tracer)
    layers.update({
        "analysis.symx_paths": (sum(c.paths for c in stats), "count"),
        "analysis.symx_steps": (steps, "count"),
        "analysis.merged_paths": (
            sum(c.merged_paths for c in stats), "count"),
        "analysis.us_per_step": (
            tracer.self_s("analysis.symx") * 1e6 / steps if steps else 0.0,
            "us"),
        "analysis.solver_model_ratio": (found / tried if tried else 0.0,
                                        "ratio"),
        "trace.overhead_ratio": (
            sum(traced_times.values()) / sum(plain.values()), "ratio"),
    })
    daemon_tracer = Tracer()
    layers.update(serve_mix.traced_layers(seed, tally, daemon_tracer))
    tracer.merge(daemon_tracer.to_dict())
    return layers
