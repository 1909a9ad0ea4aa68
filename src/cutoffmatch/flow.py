"""Funding feasibility via exact max-flow on the funding graph.

A matching is feasible when supervisors can jointly route one unit of
funding per matched applicant to each project: source -> supervisor arcs
carry budgets, supervisor -> project arcs are uncapped, project -> sink
arcs carry the matched counts.  All arithmetic is on Fractions; feasibility
verdicts are exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from cutoffmatch.model import Instance

SOURCE = "__source__"
SINK = "__sink__"


@dataclass
class FundingFlowGraph:
    """Directed graph with rational arc capacities.

    Nodes: source, one per supervisor, one per project, sink.  The
    "infinite" supervisor->project capacity is represented by the sum of
    all budgets, a safe finite bound.
    """

    nodes: list[str]
    capacity: dict[tuple[str, str], Fraction]
    adjacency: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.adjacency:
            adj: dict[str, set[str]] = {v: set() for v in self.nodes}
            for (u, v) in self.capacity:
                adj[u].add(v)
                adj[v].add(u)  # residual arcs
            self.adjacency = {v: sorted(ws) for v, ws in adj.items()}


def build_flow_graph(instance: Instance, counts: Mapping[str, int]) -> FundingFlowGraph:
    """Build the funding graph for per-project matched counts."""
    total_budget = sum(instance.budgets.values(), Fraction(0))
    capacity: dict[tuple[str, str], Fraction] = {}
    for s in instance.supervisors:
        capacity[(SOURCE, s)] = instance.budgets[s]
        for p in instance.supervised[s]:
            capacity[(s, p)] = total_budget
    for p in instance.projects:
        capacity[(p, SINK)] = Fraction(counts.get(p, 0))
    nodes = [SOURCE, *instance.supervisors, *instance.projects, SINK]
    return FundingFlowGraph(nodes=nodes, capacity=capacity)


def max_flow(graph: FundingFlowGraph) -> tuple[Fraction, dict[tuple[str, str], Fraction]]:
    """Maximum source-sink flow by shortest augmenting paths (Edmonds-Karp).

    Returns the flow value and per-arc flow amounts.  Exact: capacities and
    flows are rationals and every comparison is exact.
    """
    flow: dict[tuple[str, str], Fraction] = {arc: Fraction(0) for arc in graph.capacity}

    def residual(u: str, v: str) -> Fraction:
        r = Fraction(0)
        if (u, v) in graph.capacity:
            r += graph.capacity[(u, v)] - flow[(u, v)]
        if (v, u) in graph.capacity:
            r += flow[(v, u)]
        return r

    value = Fraction(0)
    while True:
        parent: dict[str, str] = {SOURCE: SOURCE}
        queue = deque([SOURCE])
        while queue and SINK not in parent:
            u = queue.popleft()
            for v in graph.adjacency[u]:
                if v not in parent and residual(u, v) > 0:
                    parent[v] = u
                    queue.append(v)
        if SINK not in parent:
            return value, flow
        # bottleneck along the path
        path = []
        v = SINK
        while v != SOURCE:
            u = parent[v]
            path.append((u, v))
            v = u
        bottleneck = min(residual(u, v) for u, v in path)
        for u, v in path:
            if (u, v) in graph.capacity:
                forward_room = graph.capacity[(u, v)] - flow[(u, v)]
                push = min(bottleneck, forward_room)
                flow[(u, v)] += push
                remainder = bottleneck - push
            else:
                remainder = bottleneck
            if remainder > 0:
                flow[(v, u)] -= remainder
        value += bottleneck


def min_cut_reachable(graph: FundingFlowGraph, flow: Mapping[tuple[str, str], Fraction]) -> set[str]:
    """Source side of a saturated cut certifying flow maximality."""
    reach = {SOURCE}
    queue = deque([SOURCE])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if v in reach:
                continue
            r = Fraction(0)
            if (u, v) in graph.capacity:
                r += graph.capacity[(u, v)] - flow[(u, v)]
            if (v, u) in graph.capacity:
                r += flow[(v, u)]
            if r > 0:
                reach.add(v)
                queue.append(v)
    return reach


class SipFeasibility:
    """The budget feasibility function of an instance, over per-project
    matched counts.

    Satisfies heredity (shrinking counts preserves feasibility) and
    anonymity (depends only on counts, never applicant identities).
    Verdicts are memoized; ``calls`` counts every query including cache
    hits, so complexity assertions stay honest.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.calls = 0
        self._cache: dict[tuple[int, ...], bool] = {}

    def __call__(self, counts: Mapping[str, int]) -> bool:
        self.calls += 1
        key = tuple(counts.get(p, 0) for p in self.instance.projects)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        total = sum(key)
        graph = build_flow_graph(self.instance, counts)
        value, _ = max_flow(graph)
        ok = value == total
        self._cache[key] = ok
        return ok


def feasible_counts(instance: Instance, counts: Mapping[str, int]) -> bool:
    """One-shot count-vector feasibility (no memoization)."""
    return SipFeasibility(instance)(counts)


def check_feasibility(
    instance: Instance, matching
) -> tuple[bool, dict[tuple[str, str], Fraction] | None]:
    """Decide feasibility of a matching and extract a funding certificate.

    Returns (feasible, allocation) where allocation maps (supervisor,
    project) to the funded amount.  Validity violations (duplicate
    applicants, unacceptable pairs, capacity excess) short-circuit to
    infeasible rather than raising, since callers probe candidate
    matchings freely.  With all-integer budgets the certificate is
    all-integer (augmenting paths preserve integrality).
    """
    from cutoffmatch.stability import Matching

    m = matching if isinstance(matching, Matching) else Matching(frozenset(matching))
    if not m.is_valid(instance):
        return False, None
    counts = m.counts(instance)
    graph = build_flow_graph(instance, counts)
    value, flow = max_flow(graph)
    if value != len(m.pairs):
        return False, None
    allocation = {
        (s, p): flow[(s, p)]
        for s in instance.supervisors
        for p in instance.supervised[s]
        if flow[(s, p)] > 0
    }
    return True, allocation


def verify_allocation(
    instance: Instance, counts: Mapping[str, int],
    allocation: Mapping[tuple[str, str], Fraction],
) -> bool:
    """Check a funding allocation against the three feasibility conditions."""
    for (s, p), x in allocation.items():
        if x < 0 or p not in instance.supervised[s]:
            return False
    for p in instance.projects:
        got = sum((allocation.get((s, p), Fraction(0)) for s in instance.supervisors_of(p)),
                  Fraction(0))
        if got != counts.get(p, 0):
            return False
    for s in instance.supervisors:
        spent = sum((allocation.get((s, p), Fraction(0)) for p in instance.supervised[s]),
                    Fraction(0))
        if spent > instance.budgets[s]:
            return False
    return True


def to_dot(graph: FundingFlowGraph, flow: Mapping[tuple[str, str], Fraction] | None = None) -> str:
    """DOT rendering of the funding graph, optionally annotated with a flow."""
    lines = ["digraph funding {", "  rankdir=LR;"]
    for (u, v), cap in sorted(graph.capacity.items()):
        label = f"cap={cap}"
        if flow is not None:
            label = f"flow={flow.get((u, v), Fraction(0))}/{cap}"
        lines.append(f'  "{u}" -> "{v}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
