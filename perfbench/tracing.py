"""Traced runs: timing shims around the public entry points of each
layer of the program, installed from outside ``src/``.

A shim wraps a function or method, times every call, and subtracts the
time of shimmed calls nested inside it, so each layer gets a *self*
time.  Calls into the coarse entry points (``Processor`` construction
and ``run``, the analysis tiers, witness replay) are also kept as
spans ``(name, start, end, parent, run id)`` in memory and written out
when the run ends; hot-path methods (cache, TLB, predictor, defense
hooks, security matrix, TPBuf) are counted and timed in aggregate only,
because a span per cache access would dwarf the run it describes.

Layers are named after the program's packages: ``pipeline``,
``memory``, ``frontend``, ``core`` and ``analysis``.  Shims replace
the attribute on the defining class, so calls through bound methods
hoisted after installation are seen; module-level functions are also
replaced in every loaded module that imported them by name.  The
coverage check in each workload compares shim call counts with
counters the program keeps itself, which catches a missed path.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Methods timed per layer: (module, class, layer, methods).  An empty
#: method tuple means every public function defined on the class.
SIM_METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.pipeline.processor", "Processor", "pipeline",
     ("__init__", "run")),
    ("repro.memory.hierarchy", "MemoryHierarchy", "memory",
     ("data_access", "data_hit_l1", "complete_miss", "peek_miss",
      "probe_data", "probe_l1d", "touch_l1d", "inst_access",
      "inst_hit_l1", "flush_line")),
    ("repro.memory.tlb", "TLB", "memory", ("translate",)),
    ("repro.frontend.branch_predictor", "BranchPredictor", "frontend",
     ("predict", "update")),
    ("repro.core.security_matrix", "SecurityDependenceMatrix", "core",
     ()),
    ("repro.core.tpbuf", "TPBuf", "core", ()),
)

#: Defense hook methods, timed per defense instance (``core.hook.<name>``).
DEFENSE_HOOKS = ("attach", "transform_program", "is_suspect",
                 "gate_issue", "judge_suspect_load", "still_blocked",
                 "on_dispatch", "on_resolve", "on_commit", "on_squash",
                 "on_writeback")

#: Analysis tiers: (module, function, span name).
ANALYSIS_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.taint", "analyze_program", "analysis.taint"),
    ("repro.analysis.summaries", "compute_program_summaries",
     "analysis.summaries"),
    ("repro.analysis.valueset", "refine_report", "analysis.valueset"),
    ("repro.analysis.memdep", "compute_memdep_summary", "analysis.memdep"),
    ("repro.analysis.symx", "certify_program", "analysis.symx"),
    ("repro.analysis.witness", "replay_witness", "analysis.replay"),
)

#: Entry points recorded as spans (the rest are aggregate-only).
SPAN_NAMES = {"pipeline.Processor.__init__", "pipeline.Processor.run"} \
    | {name for _m, _f, name in ANALYSIS_FUNCTIONS}


class Tracer:
    """Installs shims, aggregates per-name (calls, total, self) time and
    keeps coarse spans; ``uninstall`` restores every original."""

    def __init__(self) -> None:
        self.agg: Dict[str, List[float]] = {}
        self.spans: List[Optional[Tuple[str, float, float, int, str]]] = []
        #: Id of the operation in progress (run, program or request).
        self.run_id = ""
        #: Per-thread stacks (the serve daemon runs tiers in worker
        #: threads): child time of each open shim, indices of open spans.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # ---- shim construction ------------------------------------------------

    def _stacks(self) -> Tuple[List[float], List[int]]:
        local = self._local
        try:
            return local.child, local.opened
        except AttributeError:
            local.child, local.opened = [], []
            return local.child, local.opened

    def _shim(self, orig: Callable, name: str,
              key_of: Optional[Callable[[tuple], str]] = None) -> Callable:
        agg = self.agg
        spans = self.spans
        lock = self._lock
        stacks = self._stacks
        clock = time.perf_counter
        tracer = self
        is_span = name in SPAN_NAMES

        def shim(*args, **kwargs):
            child, opened = stacks()
            index = -1
            if is_span:
                with lock:
                    index = len(spans)
                    spans.append(None)
                opened.append(index)
            child.append(0.0)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                inner = child.pop()
                duration = end - start
                key = key_of(args) if key_of is not None else name
                with lock:
                    record = agg.get(key)
                    if record is None:
                        record = agg[key] = [0, 0.0, 0.0]
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - inner
                if child:
                    child[-1] += duration
                if is_span:
                    opened.pop()
                    parent = opened[-1] if opened else -1
                    # Inside the serve daemon the request is known
                    # only by the submission name the tier receives.
                    spans[index] = (name, start, end, parent,
                                    tracer.run_id or str(kwargs.get("name",
                                                                    "")))

        shim.__wrapped__ = orig  # type: ignore[attr-defined]
        return shim

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ---- installation -----------------------------------------------------

    def install_sim(self) -> None:
        """Shim the simulator layers (pipeline, memory, frontend, core)."""
        import importlib

        for module_name, class_name, layer, methods in SIM_METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            names = methods or tuple(
                attr for attr, value in vars(cls).items()
                if inspect.isfunction(value) and not attr.startswith("_"))
            for attr in names:
                orig = vars(cls)[attr]
                self._replace(cls, attr, self._shim(
                    orig, f"{layer}.{class_name}.{attr}"))
        from repro.core.defense import DEFENSE_REGISTRY, Defense

        classes = {Defense}
        for cls in DEFENSE_REGISTRY.values():
            classes.update(c for c in cls.__mro__
                           if isinstance(c, type) and issubclass(c, Defense))
        for cls in classes:
            for attr in DEFENSE_HOOKS:
                orig = vars(cls).get(attr)
                if orig is None or not inspect.isfunction(orig):
                    continue
                self._replace(cls, attr, self._shim(
                    orig, f"core.hook.{attr}",
                    key_of=lambda args: f"core.hook.{args[0].name}"))

    def install_analysis(self) -> None:
        """Shim the analysis tiers, in their defining module and in every
        loaded module that imported them by name."""
        import importlib

        for module_name, func_name, span in ANALYSIS_FUNCTIONS:
            orig = getattr(importlib.import_module(module_name), func_name)
            shim = self._shim(orig, span)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace or not (
                        module.__name__.startswith(("repro", "perfbench"))):
                    continue
                for attr, value in list(namespace.items()):
                    if value is orig:
                        self._replace(module, attr, shim)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- read-out ---------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return int(sum(rec[0] for key, rec in self.agg.items()
                       if key.startswith(prefix)))

    def self_s(self, prefix: str) -> float:
        return sum(rec[2] for key, rec in self.agg.items()
                   if key.startswith(prefix))

    def total_s(self, prefix: str) -> float:
        return sum(rec[1] for key, rec in self.agg.items()
                   if key.startswith(prefix))

    def record(self, key: str) -> List[float]:
        """``[calls, total_s, self_s]`` of one exact shim name."""
        return self.agg.get(key, [0, 0.0, 0.0])

    def entries(self, name: str) -> int:
        """Spans of ``name`` not nested in another span."""
        return sum(1 for span in self.spans
                   if span is not None and span[0] == name and span[3] < 0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "aggregate": {key: {"calls": int(rec[0]), "total_s": rec[1],
                                "self_s": rec[2]}
                          for key, rec in sorted(self.agg.items())},
            "spans": [
                {"name": span[0], "start": span[1], "end": span[2],
                 "parent": span[3], "id": span[4]}
                for span in self.spans if span is not None
            ],
        }

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    def merge(self, data: Dict[str, object]) -> None:
        """Fold in another process's dump (the serve daemon's)."""
        for key, rec in data["aggregate"].items():  # type: ignore[union-attr]
            mine = self.agg.setdefault(key, [0, 0.0, 0.0])
            mine[0] += rec["calls"]
            mine[1] += rec["total_s"]
            mine[2] += rec["self_s"]
        base = len(self.spans)
        for span in data["spans"]:  # type: ignore[union-attr]
            parent = span["parent"]
            self.spans.append((span["name"], span["start"], span["end"],
                               parent + base if parent >= 0 else -1,
                               span["id"]))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def sim_layers(tracer: Tracer, reports, tally
               ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the simulator: host self time and calls from
    the shims, simulated counters from the reports, and the coverage
    check (shim call counts must equal the simulator's own counters,
    else a call path was missed; a mismatch fails the run)."""
    from repro.core.defense import defense_names

    cycles = sum(r.cycles for r in reports)
    committed = sum(r.committed for r in reports)
    squashed = sum(r.squashed_instructions for r in reports)
    l1d_hits = sum(r.l1d_hits for r in reports)
    l1d = l1d_hits + sum(r.l1d_misses for r in reports)
    l1i_hits = sum(r.l1i_hits for r in reports)
    l1i = l1i_hits + sum(r.l1i_misses for r in reports)
    resolved = sum(r.branches_resolved for r in reports)
    queries = sum(r.tpbuf_queries for r in reports)
    coverage = {
        "TPBuf.is_safe vs tpbuf_queries": (
            tracer.record("core.TPBuf.is_safe")[0], queries),
        "BranchPredictor.update vs branches_resolved": (
            tracer.record("frontend.BranchPredictor.update")[0], resolved),
        "Processor.run vs reports": (
            tracer.record("pipeline.Processor.run")[0], len(reports)),
    }
    for what, (seen, expected) in coverage.items():
        tally.check(seen == expected,
                    f"trace coverage: {what}: {seen} != {expected}")
    run_total = tracer.total_s("pipeline.Processor.run")
    layers: Dict[str, Tuple[float, str]] = {
        "pipeline.construct_s": (
            tracer.total_s("pipeline.Processor.__init__"), "s"),
        "pipeline.run_self_s": (
            tracer.self_s("pipeline.Processor.run"), "s"),
        "pipeline.host_ns_per_cycle": (_ratio(run_total * 1e9, cycles),
                                       "ns"),
        "pipeline.cycles": (cycles, "count"),
        "pipeline.committed": (committed, "count"),
        "pipeline.ipc": (_ratio(committed, cycles), "ratio"),
        "pipeline.useful_ratio": (
            _ratio(committed, committed + squashed), "ratio"),
        "memory.calls": (tracer.calls("memory."), "count"),
        "memory.self_s": (tracer.self_s("memory."), "s"),
        "memory.l1d_hit_ratio": (_ratio(l1d_hits, l1d), "ratio"),
        "memory.l1i_hit_ratio": (_ratio(l1i_hits, l1i), "ratio"),
        "frontend.calls": (tracer.calls("frontend."), "count"),
        "frontend.self_s": (tracer.self_s("frontend."), "s"),
        "frontend.mispredict_ratio": (
            _ratio(sum(r.branch_mispredicts for r in reports), resolved),
            "ratio"),
        "core.hook_calls": (tracer.calls("core.hook."), "count"),
        "core.hook_self_s": (tracer.self_s("core.hook."), "s"),
        "core.matrix_self_s": (
            tracer.self_s("core.SecurityDependenceMatrix."), "s"),
        "core.tpbuf_self_s": (tracer.self_s("core.TPBuf."), "s"),
        "core.blocked_ratio": (
            _ratio(sum(r.committed_mem_blocked for r in reports),
                   sum(r.committed_memory for r in reports)), "ratio"),
        "core.tpbuf_safe_ratio": (
            _ratio(sum(r.tpbuf_safe for r in reports), queries), "ratio"),
    }
    for name in defense_names():
        calls, _total, self_s = tracer.record(f"core.hook.{name}")
        layers[f"core.hook_calls.{name}"] = (int(calls), "count")
        layers[f"core.hook_self_s.{name}"] = (self_s, "s")
    return layers


def analysis_layers(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    return {
        f"{span}_s": (tracer.self_s(span), "s")
        for _m, _f, span in ANALYSIS_FUNCTIONS
    }
