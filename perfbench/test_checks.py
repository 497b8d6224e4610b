"""The benchmark's own tests: every workload's output check must catch a
forged mismatch, a failed check must fail the command, and the tracing
shims must count what the program counts.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import sys
import types

import pytest

from perfbench import common, fig5, ladder, run, serve_mix, shootout
from perfbench.tracing import Tracer, sim_layers


@pytest.fixture(scope="module")
def reference():
    return common.load_reference()


def test_fig5_digest_mismatch_is_caught(reference):
    programs = {"hmmer": fig5.spec_program("hmmer", scale=fig5.SCALE)}
    report = fig5.simulate(programs["hmmer"], "hmmer", "cache_hit").to_dict()
    tally = common.Tally()
    assert fig5.check_report(tally, reference[fig5.NAME],
                             "hmmer/cache_hit", report)
    forged = dict(report, cycles=report["cycles"] + 1)
    assert not fig5.check_report(tally, reference[fig5.NAME],
                                 "hmmer/cache_hit", forged)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_shootout_leak_and_digest_mismatch_are_caught(reference):
    leaks = shootout.leak_matrix()
    assert leaks["origin"]["v4"] and not leaks["cache_hit"]["v4"]
    result = shootout.attack_run("origin", "v4", 3)
    tally = common.Tally()
    refs = reference[shootout.NAME]
    shootout.check_run(tally, refs, leaks, "origin", "v4", 3, result)
    assert tally.failed == 0
    flipped = {d: dict(row) for d, row in leaks.items()}
    flipped["origin"]["v4"] = False
    shootout.check_run(tally, refs, flipped, "origin", "v4", 3, result)
    forged = dataclasses.replace(
        result, report=dataclasses.replace(result.report, squashes=1 << 20))
    shootout.check_run(tally, refs, leaks, "origin", "v4", 3, forged)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_certify_verdict_and_replay_mismatch_are_caught():
    program = ladder.build_corpus_variant("v1", "unsafe")
    secrets = tuple(ladder.corpus_secret_words())
    certificate, replays = ladder.ladder(program, secrets, "v1-unsafe",
                                         "corpus")
    verdicts = ladder.expected_verdicts()
    tally = common.Tally()
    assert ladder.check_program(tally, verdicts, "v1-unsafe", "corpus",
                                certificate, replays)
    forged = dict(verdicts, **{"v1-unsafe": "PROVED_SAFE"})
    assert not ladder.check_program(tally, forged, "v1-unsafe", "corpus",
                                    certificate, replays)
    partial = [dataclasses.replace(replays[0], reproduced=False)]
    assert not ladder.check_program(tally, verdicts, "v1-unsafe", "corpus",
                                    certificate, partial)
    # A generated program's witness may show no difference at all, or
    # only some predicted lines; never only lines it did not predict.
    gap = [dataclasses.replace(replays[0], reproduced=False,
                               leaked_lines=())]
    assert ladder.check_program(tally, {}, "fuzz-0", "fuzz", certificate,
                                gap)
    assert ladder.check_program(tally, {}, "fuzz-0", "fuzz", certificate,
                                partial)
    unpredicted = [dataclasses.replace(replays[0], reproduced=False,
                                       leaked_lines=(1 << 40,))]
    assert not ladder.check_program(tally, {}, "fuzz-0", "fuzz",
                                    certificate, unpredicted)
    assert tally.failed == 3


def test_serve_result_mismatch_is_caught():
    body = serve_mix.build_schedule(7)[0][1]
    expected = serve_mix.expected_results([body])[serve_mix.body_key(body)]
    served = dict(expected, timing={"wall_s": 0.01})

    def outcome(status=200, result=served, error=""):
        made = serve_mix.Outcome(0.0)
        made.status, made.result, made.error = status, result, error
        return made

    tally = common.Tally()
    assert serve_mix.check_outcome(tally, outcome(), body, expected)
    wrong = dict(served, findings=["forged"])
    assert not serve_mix.check_outcome(tally, outcome(result=wrong), body,
                                       expected)
    assert not serve_mix.check_outcome(
        tally, outcome(result=dict(served, degraded=True)), body, expected)
    assert not serve_mix.check_outcome(tally, outcome(status=429, result=None),
                                       body, expected)
    assert not serve_mix.check_outcome(tally, outcome(error="timed out"),
                                       body, expected)
    assert (tally.attempted, tally.failed) == (5, 4)


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    fake = types.ModuleType("perfbench_fake_workload")

    def setup(seed, seconds):
        return None

    def measure(state, seed, seconds, tally):
        tally.check(True, "fine")
        tally.check(False, "forged mismatch")
        return common.WorkloadResult(
            tally=tally, metrics={"throughput": (1.0, "1/s"),
                                  "p50_ms": (1.0, "ms"),
                                  "tail_ms": (2.0, "ms")})

    fake.setup, fake.measure = setup, measure
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setitem(run.WORKLOADS, "fake", fake.__name__)
    code = run.main(["--workload", "fake", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (last["correct"], last["attempted"], last["failed"]) == \
        (False, 2, 1)
    assert set(last["metrics"]) == {m for m, _u in
                                    run.declared_metrics(trace=False)}


def test_shims_count_what_the_simulator_counts():
    program = fig5.spec_program("astar", scale=0.02)
    original_run = fig5.Processor.run
    tracer = Tracer()
    tracer.install_sim()
    try:
        report = fig5.simulate(program, "astar", "cache_hit_tpbuf")
    finally:
        tracer.uninstall()
    assert fig5.Processor.run is original_run
    tally = common.Tally()
    layers = sim_layers(tracer, [report], tally)
    assert tally.failed == 0 and tally.attempted == 3
    assert layers["core.hook_calls.cache_hit_tpbuf"][0] > 0
    assert layers["memory.calls"][0] > 0
    # A missed call path shows as a count mismatch.
    inflated = dataclasses.replace(report, tpbuf_queries=report.tpbuf_queries
                                   + 1)
    sim_layers(tracer, [inflated], tally)
    assert tally.failed == 1
