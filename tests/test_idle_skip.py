"""Idle-cycle skipping must be invisible.

``Processor.run`` jumps over quiescent stretches instead of stepping
them.  Every run here is made twice, once as shipped and once with
``Processor._skip_idle`` replaced by a no-op (stepping every cycle), and
everything observable must match: the report, the per-instruction
trace, decoded attack secrets, watchdog diagnostics, budget stops and
the cycles at which a cancel hook is polled.  ``cycles_golden.json``
pins only the four paper modes; this covers the whole zoo.
"""
import pytest

from repro import Processor, SecurityConfig, paper_config, tiny_config
from repro.analysis.corpus import (
    CORPUS_VARIANTS,
    GADGET_KINDS,
    build_corpus_variant,
)
from repro.attacks.harness import run_attack
from repro.attacks.layout import AttackLayout
from repro.core.defense import defense_names
from repro.errors import DeadlockError
from repro.experiments.shootout import ATTACK_SUITE
from repro.isa import ProgramBuilder
from repro.params import RunOptions
from repro.pipeline.trace import PipelineTracer
from repro.robustness import FaultInjector, FaultPlan
from repro.workloads import spec_program

#: One profile of each fig5 class (Table V L1 hit rate >= / < 0.90).
BUSY_PROFILE = "gcc"
STALL_PROFILE = "mcf"
PAPER_MODES = ("origin", "baseline", "cache_hit", "cache_hit_tpbuf")


def _skip_and_tick(monkeypatch, run):
    """``run()`` with idle skipping, then with every cycle stepped."""
    skipped = run()
    with monkeypatch.context() as patch:
        patch.setattr(Processor, "_skip_idle", lambda self, horizon: None)
        ticked = run()
    return skipped, ticked


def _traced_run(program, machine, defense, **run_kwargs):
    tracer = PipelineTracer(limit=1_000_000)
    cpu = Processor(program, machine=machine, tracer=tracer,
                    security=SecurityConfig.for_defense(defense))
    report = cpu.run(**run_kwargs)
    return report.to_dict(), tracer.records, cpu.skipped_cycles


def _miss_loop(iterations=1_000_000):
    """Flush a line, then load it: one memory miss per iteration, so
    most cycles wait on a fill."""
    b = ProgramBuilder()
    b.data_word(0x4000, 7)
    b.li(1, 0x4000).li(2, 0).li(3, iterations)
    b.label("loop")
    b.clflush(1).load(4, 1).add(5, 5, 4).addi(2, 2, 1)
    b.blt(2, 3, "loop")
    b.halt()
    return b.build()


@pytest.mark.parametrize("profile", [BUSY_PROFILE, STALL_PROFILE])
@pytest.mark.parametrize("defense", defense_names())
def test_spec_profile_matches_ticking(monkeypatch, profile, defense):
    program = spec_program(profile, scale=0.05)
    skipped, ticked = _skip_and_tick(
        monkeypatch, lambda: _traced_run(program, paper_config(), defense))
    assert skipped[0] == ticked[0]
    assert skipped[1] == ticked[1]  # incl. per-instruction block_events
    assert skipped[2] > 0 and ticked[2] == 0


@pytest.mark.parametrize("attack", list(ATTACK_SUITE))
def test_attack_suite_matches_ticking(monkeypatch, attack):
    def run():
        results = []
        for defense in defense_names():
            layout = AttackLayout(secret_value=5)
            result = run_attack(ATTACK_SUITE[attack](layout),
                                machine=paper_config(),
                                security=SecurityConfig.for_defense(defense))
            results.append((defense, result.report.to_dict(),
                            result.timings, result.recovered,
                            result.leaked))
        return results

    skipped, ticked = _skip_and_tick(monkeypatch, run)
    assert skipped == ticked


@pytest.mark.parametrize("kind", GADGET_KINDS)
def test_corpus_drivers_match_ticking(monkeypatch, kind):
    def run():
        return [_traced_run(build_corpus_variant(kind, variant),
                            paper_config(), mode)[:2]
                for variant in CORPUS_VARIANTS for mode in PAPER_MODES]

    skipped, ticked = _skip_and_tick(monkeypatch, run)
    assert skipped == ticked


def _deadlock(program, **processor_kwargs):
    cpu = Processor(program, machine=paper_config(),
                    security=SecurityConfig.origin(), **processor_kwargs)
    with pytest.raises(DeadlockError) as excinfo:
        cpu.run(max_cycles=100_000)
    diag = excinfo.value.diagnostics
    return (diag.cycle, diag.stall_cycles, diag.snapshots,
            cpu.report.to_dict(), cpu.skipped_cycles)


def test_slow_memory_deadlock_diagnostics_match(monkeypatch):
    # A watchdog limit shorter than one memory miss trips inside an
    # idle stretch: the skip must stop exactly at the trip cycle.
    skipped, ticked = _skip_and_tick(
        monkeypatch, lambda: _deadlock(_miss_loop(), watchdog_cycles=40))
    assert skipped[:4] == ticked[:4]
    assert skipped[2], "occupancy snapshots must be captured"
    assert skipped[4] > 0


class _NeverFillingInjector(FaultInjector):
    def extra_fill_delay(self, cycle, inst):
        return 1_000_000_000


def test_fault_injected_wedge_never_skips(monkeypatch):
    def run():
        return _deadlock(
            _miss_loop(),
            fault_plan=_NeverFillingInjector(FaultPlan(seed=0)),
            watchdog_cycles=2_000)

    skipped, ticked = _skip_and_tick(monkeypatch, run)
    assert skipped == ticked
    assert skipped[4] == 0


@pytest.mark.parametrize("max_cycles", [1_000, 3_333])
def test_cycle_budget_stops_at_exactly_max_cycles(monkeypatch, max_cycles):
    skipped, ticked = _skip_and_tick(
        monkeypatch,
        lambda: _traced_run(_miss_loop(), paper_config(), "origin",
                            max_cycles=max_cycles))
    assert skipped[:2] == ticked[:2]
    assert skipped[0]["cycles"] == max_cycles
    assert skipped[0]["termination"] == "cycle_budget"
    assert skipped[2] > 0


@pytest.mark.parametrize("cancel_at_poll", [0, 3])
def test_cancel_check_polled_at_the_same_cycles(monkeypatch,
                                                cancel_at_poll):
    def run():
        polls = []
        cpu = None

        def cancel_check():
            polls.append(cpu.cycle)
            return len(polls) == cancel_at_poll

        cpu = Processor(_miss_loop(), machine=tiny_config(),
                        security=SecurityConfig.origin(),
                        options=RunOptions(cancel_check=cancel_check))
        report = cpu.run(max_cycles=20_000)
        return polls, report.to_dict(), cpu.skipped_cycles

    skipped, ticked = _skip_and_tick(monkeypatch, run)
    assert skipped[:2] == ticked[:2]
    assert skipped[0][:3] == [4096, 8192, 12288]
    assert skipped[2] > 0


def test_skipped_cycles_stay_out_of_the_report():
    cpu = Processor(_miss_loop(iterations=20), machine=paper_config(),
                    security=SecurityConfig.origin())
    report = cpu.run()
    assert report.halted and cpu.skipped_cycles > 0
    flat = repr(report.to_dict())
    assert "skipped" not in flat
