"""Per-layer spans and counters for the traced run, recorded from outside.

The tracer wraps the calls the benchmark makes into the library.  During
each traced call, and only then, it also rebinds the module attributes
through which one layer calls another (``flow.max_flow``,
``milp.solve_lp``, ``egalitarian.solve_lp``, ``milp.check_stability``,
``oracle.check_stability``, ``milp.build_model``) and the feasibility
class that ``stability`` and ``oracle`` build for themselves.  Nothing in
the program's source changes.

Each span records its name, start, end, parent and instance id.  A span's
layer is the part of its name before the first dot, and its self time is
its duration minus the time covered by its children.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable

from cutoffmatch import egalitarian, flow, milp, oracle, stability
from cutoffmatch.lp import OPTIMAL

from workloads import Context, SetupClock

TRACED_LAYERS = ("flow", "engine", "stability", "oracle", "lp", "milp", "egalitarian")

# Name and unit of every per-layer metric, in report order.
PER_LAYER = (
    ("flow.queries", "count"),
    ("flow.maxflow_calls", "count"),
    ("flow.hit_ratio", "ratio"),
    ("flow.busy_s", "s"),
    ("flow.s_per_maxflow.p50", "s"),
    ("engine.busy_s", "s"),
    ("engine.self_s", "s"),
    ("engine.feasibility_calls", "count"),
    ("engine.decrements", "count"),
    ("stability.checks", "count"),
    ("stability.busy_s", "s"),
    ("stability.self_s", "s"),
    ("stability.queries_per_check", "count"),
    ("oracle.matchings", "count"),
    ("oracle.self_s", "s"),
    ("lp.solves", "count"),
    ("lp.busy_s", "s"),
    ("lp.s_per_solve.p50", "s"),
    ("lp.rows.mean", "count"),
    ("lp.cols.mean", "count"),
    ("lp.nonoptimal_frac", "ratio"),
    ("milp.nodes", "count"),
    ("milp.build_s", "s"),
    ("milp.verify_s", "s"),
    ("milp.self_s", "s"),
    ("egalitarian.lp_solves", "count"),
    ("egalitarian.rounds", "count"),
    ("egalitarian.lp_per_round", "count"),
    ("egalitarian.self_s", "s"),
    ("model.generate_s", "s"),
    ("model.validate_s", "s"),
    *((f"{layer}.self_share", "ratio") for layer in TRACED_LAYERS),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Work counters the library returns, read where the benchmark's call returns.
RESULT_COUNTS: dict[str, Callable] = {
    "engine.solve": lambda r: {"engine.feasibility_calls": r[2].feasibility_calls,
                               "engine.decrements": len(r[2].entries)},
    "milp.solve_max_cutoff_stable": lambda r: {"milp.nodes": r[3]},
    "egalitarian.egalitarian_allocation": lambda r: {"egalitarian.lp_solves": r.lp_solves,
                                                     "egalitarian.rounds": r.rounds},
}

NAME, START, END, PARENT, INSTANCE = range(5)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer(Context):
    """Records a span around every call it makes or that passes a rebound site."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        self.queries: dict[str, int] = defaultdict(int)  # by innermost span name
        self.counts: dict[str, int] = defaultdict(int)
        self.lp_rows: list[int] = []
        self.lp_cols: list[int] = []
        self.lp_nonoptimal = 0
        tracer = self

        class CountingFeasibility(flow.SipFeasibility):
            def __call__(self, counts):
                innermost = tracer.spans[tracer.stack[-1]][NAME] if tracer.stack else ""
                tracer.queries[innermost] += 1
                return super().__call__(counts)

        self.feasibility = CountingFeasibility
        check = self._wrap("stability.check_stability", stability.check_stability)
        self._rebinds = (
            (flow, "max_flow", self._wrap("flow.max_flow", flow.max_flow)),
            (milp, "solve_lp", self._wrap_lp(milp.solve_lp)),
            (egalitarian, "solve_lp", self._wrap_lp(egalitarian.solve_lp)),
            (milp, "check_stability", check),
            (oracle, "check_stability", check),
            (milp, "build_model", self._wrap("milp.build_model", milp.build_model)),
            (stability, "SipFeasibility", CountingFeasibility),
            (oracle, "SipFeasibility", CountingFeasibility),
        )

    @contextmanager
    def installed(self, instance: int):
        """Rebind the cross-layer call sites to traced wrappers, and restore
        them on exit, so that only calls made inside are traced."""
        self.instance = instance
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in self._rebinds]
        for module, attr, value in self._rebinds:
            setattr(module, attr, value)
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.instance]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter_ns()
            self.stack.pop()
        extract = RESULT_COUNTS.get(name)
        if extract is not None:
            for key, value in extract(result).items():
                self.counts[key] += value
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _wrap_lp(self, fn: Callable) -> Callable:
        def traced_solve_lp(program):
            bounded = sum(1 for v in program.variables if program.upper[v] is not None)
            self.lp_rows.append(len(program.constraints) + bounded)
            self.lp_cols.append(len(program.variables))
            solution = self.call("lp.solve_lp", fn, program)
            if solution.status != OPTIMAL:
                self.lp_nonoptimal += 1
            return solution
        return traced_solve_lp

    def metrics(self, clock: SetupClock, untraced_s: float, traced_s: float) -> dict[str, float]:
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]

        # a span adds to its layer's busy time unless an ancestor of the same
        # layer already covers it
        layers = [span[NAME].split(".", 1)[0] for span in spans]
        self_ns: dict[str, int] = defaultdict(int)
        busy_ns: dict[str, int] = defaultdict(int)
        durations: dict[str, list[int]] = defaultdict(list)
        child_of: dict[tuple[str, str], int] = defaultdict(int)  # (parent, child) -> ns
        child_count: dict[tuple[str, str], int] = defaultdict(int)
        for i, span in enumerate(spans):
            parent = span[PARENT]
            d = span[END] - span[START]
            self_ns[layers[i]] += d - child_ns[i]
            up = parent
            while up >= 0 and layers[up] != layers[i]:
                up = spans[up][PARENT]
            if up < 0:
                busy_ns[layers[i]] += d
            durations[span[NAME]].append(d)
            if parent >= 0:
                key = (layers[parent], span[NAME])
                child_of[key] += d
                child_count[key] += 1
        total_self = sum(self_ns.values())

        def seconds(ns: int) -> float:
            return ns / 1e9

        def p50(name: str) -> float:
            ds = durations.get(name)
            return statistics.median(ds) / 1e9 if ds else 0.0

        queries = sum(self.queries.values())
        maxflows = len(durations["flow.max_flow"])
        checks = len(durations["stability.check_stability"])
        solves = len(durations["lp.solve_lp"])
        return {
            "flow.queries": queries,
            "flow.maxflow_calls": maxflows,
            "flow.hit_ratio": 1 - _ratio(maxflows, queries) if queries else 0.0,
            "flow.busy_s": seconds(busy_ns["flow"]),
            "flow.s_per_maxflow.p50": p50("flow.max_flow"),
            "engine.busy_s": seconds(busy_ns["engine"]),
            "engine.self_s": seconds(self_ns["engine"]),
            "engine.feasibility_calls": self.counts["engine.feasibility_calls"],
            "engine.decrements": self.counts["engine.decrements"],
            "stability.checks": checks,
            "stability.busy_s": seconds(busy_ns["stability"]),
            "stability.self_s": seconds(self_ns["stability"]),
            "stability.queries_per_check": _ratio(self.queries["stability.check_stability"],
                                                  checks),
            "oracle.matchings": child_count[("oracle", "stability.check_stability")],
            "oracle.self_s": seconds(self_ns["oracle"]),
            "lp.solves": solves,
            "lp.busy_s": seconds(busy_ns["lp"]),
            "lp.s_per_solve.p50": p50("lp.solve_lp"),
            "lp.rows.mean": _ratio(sum(self.lp_rows), len(self.lp_rows)),
            "lp.cols.mean": _ratio(sum(self.lp_cols), len(self.lp_cols)),
            "lp.nonoptimal_frac": _ratio(self.lp_nonoptimal, solves),
            "milp.nodes": self.counts["milp.nodes"],
            "milp.build_s": seconds(sum(durations["milp.build_model"])),
            "milp.verify_s": seconds(child_of[("milp", "stability.check_stability")]),
            "milp.self_s": seconds(self_ns["milp"]),
            "egalitarian.lp_solves": self.counts["egalitarian.lp_solves"],
            "egalitarian.rounds": self.counts["egalitarian.rounds"],
            "egalitarian.lp_per_round": _ratio(self.counts["egalitarian.lp_solves"],
                                               self.counts["egalitarian.rounds"]),
            "egalitarian.self_s": seconds(self_ns["egalitarian"]),
            "model.generate_s": clock.generate_s,
            "model.validate_s": clock.validate_s,
            **{f"{layer}.self_share": _ratio(self_ns[layer], total_self)
               for layer in TRACED_LAYERS},
            "trace.spans": len(spans),
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": _ratio(traced_s - untraced_s, untraced_s),
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tinstance\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[INSTANCE]}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")
