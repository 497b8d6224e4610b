"""The serve layer: ``repro serve`` under an open-loop request mix.

Used by the traced run of ``certify_ladder`` (the analysis layer used
as a service).  The daemon runs in its own process with two workers;
this process is the one load generator, sending on a seeded Poisson
schedule over at most two connections.  Latency is timed from each
request's *due* time, so a stall also delays the requests behind it.

The traffic is mostly distinct generated programs sent as ``asm``:
inline taint and valueset requests plus background symx requests, with
a stated share of exact repeats (served from the result cache) and
near-miss repeats (same code, other secret words: only the region
cache can help).  The seed drives the programs, the order of the mix
and the arrival times.
"""
from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.fuzz.generator import GeneratorConfig, generate_program
from repro.isa.assembler import disassemble
from repro.params import preset
from repro.serve import ServeClient, ServeClientError
from repro.serve.engine import AnalysisEngine, strip_timing
from repro.serve.protocol import Submission

from .common import (
    ROOT,
    SRC,
    Tally,
    median,
    tail,
)

NAME = "serve_mix"
WORKERS = 2
CONNECTIONS = 2
#: Offered rate (requests/s) and how long it is offered: about 40% of
#: the daemon's capacity on a 2-core host, so requests rarely queue.
RATE = 40.0
SECONDS = 8.0
#: Traffic mix, as one block of 20 requests whose order the seed
#: shuffles: new programs per tier, exact repeats ("repeat") and
#: near-miss repeats ("near": same code, other secret words).  Fixed
#: shares keep the seed from moving the mix, only its contents.
TIERS = ("taint", "valueset", "symx")
MIX_BLOCK = (["taint"] * 8 + ["valueset"] * 5 + ["symx"] * 1
             + ["repeat"] * 3 + ["near"] * 3)
FUZZ_LENGTH = 12
#: Client-side give-up time for one request (a timeout is a failure).
REQUEST_TIMEOUT_S = 30.0
POLL_S = 0.005


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

def build_schedule(seed: int) -> List[Tuple[float, Dict[str, object]]]:
    """``(due offset s, body)`` for every request: Poisson arrivals at
    ``RATE`` for ``SECONDS``."""
    rng = random.Random(f"{NAME}:{seed}")
    config = GeneratorConfig(secret=True, length=FUZZ_LENGTH, loops=False)
    schedule: List[Tuple[float, Dict[str, object]]] = []
    sent: List[Dict[str, object]] = []
    kinds: List[str] = []
    due = rng.expovariate(RATE)
    while due < SECONDS:
        if not kinds:
            kinds = list(MIX_BLOCK)
            rng.shuffle(kinds)
        kind = kinds.pop()
        if kind == "repeat" and sent:
            body = dict(rng.choice(sent))
        elif kind == "near" and sent:
            body = dict(rng.choice(sent))
            body["secret_words"] = [w + 8 for w in body["secret_words"]]
        else:
            generated = generate_program(f"{seed}:{len(schedule)}", config)
            body = {"asm": disassemble(generated.program),
                    "name": f"gen-{len(schedule)}",
                    # A repeat before anything was sent: new taint.
                    "tier": kind if kind in TIERS else "taint",
                    "secret_words": list(generated.secret_words)}
        body["client"] = f"client-{rng.randrange(4)}"
        sent.append(body)
        schedule.append((due, body))
        due += rng.expovariate(RATE)
    return schedule


# ---------------------------------------------------------------------------
# Daemon
# ---------------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` process with the tracing shims installed
    (``perfbench/serve_child.py``), writing its trace to ``trace_out``
    when it drains."""

    def __init__(self, trace_out: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC])
        args = ["serve", "--port", "0", "--workers", str(WORKERS),
                "--rate", "10000", "--burst", "10000",
                "--queue-depth", "4096", "--drain-grace", "5"]
        command = [sys.executable, "-m", "perfbench.serve_child",
                   trace_out, *args]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------

class Outcome:
    """One request's fate as the generator saw it (seconds from the
    schedule's start)."""

    __slots__ = ("due", "sent", "done", "status", "result", "cached",
                 "error")

    def __init__(self, due: float) -> None:
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.status = 0
        self.result: Optional[Dict[str, object]] = None
        self.cached = False
        self.error = ""


def drive(port: int, schedule) -> List[Outcome]:
    """Send ``schedule`` open-loop over ``CONNECTIONS`` connections.

    A background (symx) job does not hold its connection: the job id is
    parked and polled by whichever connection is idle until its next
    request falls due, so one slow certification cannot stall the
    sends behind it.  A job counts as done when a poll first sees it
    done."""
    outcomes = [Outcome(due) for due, _body in schedule]
    cursor = [0]
    pending: List[Tuple[int, str]] = []
    lock = threading.Lock()
    start = time.monotonic() + 0.05

    def finish(outcome: Outcome, payload: Dict[str, object]) -> None:
        outcome.cached = outcome.cached or bool(payload.get("cached"))
        result = payload.get("result")
        outcome.result = result if isinstance(result, dict) else None
        outcome.done = time.monotonic() - start

    def poll_one(client: ServeClient) -> bool:
        """Poll the oldest parked job; False when none is parked."""
        with lock:
            if not pending:
                return False
            index, job_id = pending.pop(0)
        outcome = outcomes[index]
        try:
            view = client.job(job_id).payload
        except ServeClientError as exc:
            outcome.error = str(exc)
            return True
        if view.get("state") == "done":
            finish(outcome, view)
        elif time.monotonic() - start - outcome.sent > REQUEST_TIMEOUT_S:
            outcome.error = f"job {job_id} timed out"
        else:
            with lock:
                pending.append((index, job_id))
            time.sleep(POLL_S / max(1, len(pending)))
        return True

    def connection() -> None:
        client = ServeClient(port=port, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                break
            outcome = outcomes[index]
            due = start + outcome.due
            while time.monotonic() < due:
                if not poll_one(client):
                    time.sleep(min(POLL_S, max(0.0, due - time.monotonic())))
            outcome.sent = time.monotonic() - start
            try:
                response = client.submit(schedule[index][1])
            except ServeClientError as exc:
                outcome.error = str(exc)
                continue
            outcome.status = response.status
            payload = response.payload
            if response.ok and "job_id" in payload \
                    and "result" not in payload:
                outcome.cached = bool(payload.get("cached"))
                with lock:
                    pending.append((index, str(payload["job_id"])))
            else:
                finish(outcome, payload)
        while poll_one(client):
            pass

    threads = [threading.Thread(target=connection)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def expected_results(bodies: List[Dict[str, object]]
                     ) -> Dict[str, Dict[str, object]]:
    """Each distinct submission answered by the engine in-process."""
    engine = AnalysisEngine(machine=preset("tiny"))
    expected = {}
    for body in bodies:
        key = body_key(body)
        if key not in expected:
            expected[key] = strip_timing(
                engine.execute(Submission.from_request(body)))
    return expected


def body_key(body: Dict[str, object]) -> str:
    return json.dumps({k: v for k, v in body.items() if k != "client"},
                      sort_keys=True)


def check_outcome(tally: Tally, outcome: Outcome, body, expected) -> bool:
    """Non-2xx, shed, timeout or degraded answers fail; so does a result
    (timing stripped) that differs from the engine's own answer."""
    name = body.get("name")
    if outcome.error or not 200 <= outcome.status < 300 \
            or outcome.result is None:
        return tally.check(False, f"{NAME} {name}: status "
                                  f"{outcome.status} {outcome.error}")
    if outcome.result.get("degraded") or \
            outcome.result.get("status") != "ok":
        return tally.check(False, f"{NAME} {name}: degraded or failed "
                                  f"answer {outcome.result.get('warnings')}")
    return tally.check(strip_timing(outcome.result) == expected,
                       f"{NAME} {name}: result differs from the engine's")


def run_schedule(daemon: Daemon, schedule, tally: Tally):
    """Drive one daemon through ``schedule`` and check every answer;
    returns (outcomes, the daemon's /v1/stats)."""
    outcomes = drive(daemon.port, schedule)
    stats = ServeClient(port=daemon.port).stats()
    expected = expected_results([body for _due, body in schedule])
    for outcome, (_due, body) in zip(outcomes, schedule):
        check_outcome(tally, outcome, body, expected[body_key(body)])
    return outcomes, stats


def serve_layers(outcomes: List[Outcome], stats
                 ) -> Dict[str, Tuple[float, str]]:
    latency_ms = [(o.done - o.due) * 1000.0 for o in outcomes]
    computed = [o for o in outcomes if o.result is not None and not o.cached]
    compute_ms = [float(o.result["timing"]["wall_s"]) * 1000.0
                  for o in computed]
    overhead_ms = [(o.done - o.sent) * 1000.0 - ms
                   for o, ms in zip(computed, compute_ms)]
    cache = stats["cache"]
    region = stats["region_cache"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "serve.p50_ms": (median(latency_ms), "ms"),
        "serve.tail_ms": (tail(latency_ms)[0], "ms"),
        "serve.compute_ms": (median(compute_ms), "ms"),
        "serve.overhead_ms": (median(overhead_ms), "ms"),
        "serve.cache_hit_ratio": (
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "serve.region_hit_ratio": (
            ratio(region["hits"], region["hits"] + region["misses"]),
            "ratio"),
        "serve.shed": (stats["admission"]["shed"], "count"),
        "serve.generator_lag_ms": (
            median((o.sent - o.due) * 1000.0 for o in outcomes), "ms"),
        "serve.requests": (len(outcomes), "count"),
    }


def traced_layers(seed: int, tally: Tally, tracer
                  ) -> Dict[str, Tuple[float, str]]:
    """Serve the seeded schedule from a daemon started with the analysis
    shims; the daemon's spans and aggregate are folded into ``tracer``
    when it exits.  Coverage: every computed (not cached) answer
    enters the taint tier once."""
    from .common import TRACE_DIR

    schedule = build_schedule(seed)
    trace_out = os.path.join(TRACE_DIR, f"serve-daemon-{os.getpid()}.json")
    daemon = Daemon(trace_out)
    try:
        outcomes, stats = run_schedule(daemon, schedule, tally)
    finally:
        daemon.stop()
    with open(trace_out) as handle:
        tracer.merge(json.load(handle))
    os.remove(trace_out)
    computed = stats["cache"]["misses"]
    entered = tracer.entries("analysis.taint")
    tally.check(entered == computed,
                f"trace coverage: daemon analysis.taint entries {entered} "
                f"!= computed answers {computed}")
    return serve_layers(outcomes, stats)
