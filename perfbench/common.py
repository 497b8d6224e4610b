"""Shared plumbing for the repo benchmark: paths, statistics, host
noise probe, memory high-water marks, output digests and the tally of
checked operations."""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Where traced runs write their spans (listed in the root .gitignore).
TRACE_DIR = os.path.join(HERE, "out")

#: Workload seed reserved for confirming a performance claim on inputs
#: that were not used while the change was written (see README.md).
CONFIRM_SEED = 9173


def ensure_src_path() -> None:
    """Import the program from the checkout's own ``src/``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def process_age_s() -> float:
    """Seconds since this process was created (Linux ``/proc``), so
    set-up time includes interpreter start and imports."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def tail(values: Sequence[float], beyond: int = 10
         ) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``; with too few
    samples it falls back to the maximum (``samples_beyond`` 0)."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= beyond:
        return data[-1], 100.0, 0
    index = n - beyond - 1
    return data[index], 100.0 * (index + 1) / n, beyond


def another_pass(started: float, seconds: float,
                 durations: Sequence[float]) -> bool:
    """Whether to run another pass: always a first one, then only while
    the next pass (assumed as long as the last) would end no later than
    half a pass after ``seconds`` — so a run measures about ``seconds``
    whatever its pass length."""
    if not durations:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + durations[-1] / 2.0 <= seconds


def per_item_medians(passes: Sequence[Dict[str, float]]
                     ) -> Dict[str, float]:
    """Median host time of each operation across repeated passes
    (damps one-off host stalls without hiding a slower program)."""
    keys = passes[0].keys()
    return {key: median(p[key] for p in passes if key in p)
            for key in keys}


# ---------------------------------------------------------------------------
# Host noise probe and memory
# ---------------------------------------------------------------------------

def calibration_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a probe of how fast the
    host ran this process at this moment.  Reported beside the
    metrics, never folded into them."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - started) * 1000.0)
    return median(samples)


def loadavg_1m() -> float:
    return os.getloadavg()[0]


def cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``: time the
    hypervisor gave this virtual machine's CPUs to someone else."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_pct(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    total = end[1] - start[1]
    return 100.0 * (end[0] - start[0]) / total if total else 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def report_digest(report_dict: Dict[str, object]) -> str:
    """Stable digest of a ``SimReport.to_dict()``."""
    blob = json.dumps(report_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def load_reference() -> Dict[str, object]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


@dataclass
class Tally:
    """Checked operations: every operation is attempted once and either
    matches its expected output or is recorded as failed."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    tally: Tally
    #: End-to-end metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    #: The workload's own named figures (such as ``sim_kips_busy``),
    #: printed with their units.
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)
