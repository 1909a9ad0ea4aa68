"""Funding feasibility via exact max-flow on the funding graph.

A matching is feasible when supervisors can jointly route one unit of
funding per matched applicant to each project: source -> supervisor arcs
carry budgets, supervisor -> project arcs are uncapped, project -> sink
arcs carry the matched counts.  Every capacity is scaled by L, the lcm of
the budget denominators, so the max-flow kernel runs on Python ints; the
public functions divide by L on the way out and return Fractions.
Feasibility verdicts are exact.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from cutoffmatch.model import Instance

SOURCE = "__source__"
SINK = "__sink__"


class FundingNetwork:
    """The fixed funding network of an instance, on index arrays.

    Node 0 is the source, then come the supervisors, then the projects,
    and the last node is the sink.  Arcs are numbered in the order
    source -> s, s -> p for each supervisor s, then p -> sink for every
    project.  Capacities are ints in units of 1/``scale``; the "uncapped"
    supervisor -> project arcs carry the total budget, a safe finite bound.
    Each node lists its residual neighbours sorted by name, so the
    shortest augmenting paths are the ones a name-keyed graph would find.
    """

    def __init__(self, instance: Instance):
        self.scale = lcm(*(q.denominator for q in instance.budgets.values()))
        names = [SOURCE, *instance.supervisors, *instance.projects, SINK]
        first_project = len(instance.supervisors) + 1
        project = {p: i for i, p in enumerate(instance.projects, start=first_project)}
        total = int(sum(instance.budgets.values(), Fraction(0)) * self.scale)
        arcs: list[tuple[int, int]] = []
        capacity: list[int] = []
        # per project, its (s -> p, source -> s) arc pairs in arc order
        self.feeders: list[list[tuple[int, int]]] = [[] for _ in instance.projects]
        for i, s in enumerate(instance.supervisors, start=1):
            budget_arc = len(arcs)
            arcs.append((0, i))
            capacity.append(int(instance.budgets[s] * self.scale))
            for p in instance.supervised[s]:
                self.feeders[project[p] - first_project].append((len(arcs), budget_arc))
                arcs.append((i, project[p]))
                capacity.append(total)
        self.first_sink_arc = len(arcs)
        sink = len(names) - 1
        arcs.extend((project[p], sink) for p in instance.projects)
        capacity.extend(0 for _ in instance.projects)

        self.names = names
        self.arcs = arcs
        self.base_capacity = capacity  # project -> sink arcs at 0
        self.arc_index = {(names[u], names[v]): a for a, (u, v) in enumerate(arcs)}
        # residual edge 2a runs along arc a, edge 2a+1 against it
        self.tail = [end for arc in arcs for end in arc]
        neighbours: list[list[tuple[str, int, int]]] = [[] for _ in names]
        for a, (u, v) in enumerate(arcs):
            neighbours[u].append((names[v], v, 2 * a))
            neighbours[v].append((names[u], u, 2 * a + 1))
        # (neighbour, residual edge) pairs, by neighbour name
        self.adjacency = [
            tuple((v, e) for _, v, e in sorted(ns, key=lambda n: n[0])) for ns in neighbours
        ]

    def with_counts(self, counts: tuple[int, ...]) -> list[int]:
        """Arc capacities for per-project matched counts, in project order."""
        capacity = self.base_capacity[:]
        capacity[self.first_sink_arc:] = [c * self.scale for c in counts]
        return capacity

    def max_flow(self, capacity: list[int],
                 start: list[int] | None = None) -> tuple[int, list[int]]:
        """Edmonds-Karp: augment along shortest residual paths, from zero
        flow or from the per-arc flow ``start`` (which must fit
        ``capacity``), until none is left or every sink arc is full.
        Returns the flow value and the per-arc flows."""
        adjacency, tail = self.adjacency, self.tail
        sink = len(adjacency) - 1
        residual = [0] * (2 * len(capacity))
        if start is None:
            residual[::2] = capacity
            value = 0
        else:
            residual[::2] = [c - f for c, f in zip(capacity, start)]
            residual[1::2] = start
            value = sum(start[self.first_sink_arc:])
        # with every sink arc saturated no augmenting path can exist
        full = sum(capacity[self.first_sink_arc:])
        while value < full:
            via: list[int | None] = [None] * len(adjacency)  # edge reaching each node
            via[0] = -1
            queue = [0]
            for u in queue:
                for v, e in adjacency[u]:
                    if via[v] is None and residual[e] > 0:
                        via[v] = e
                        queue.append(v)
                if via[sink] is not None:
                    break
            else:
                break
            path = []
            v = sink
            while v:
                e = via[v]
                path.append(e)
                v = tail[e]
            bottleneck = min([residual[e] for e in path])
            for e in path:
                residual[e] -= bottleneck
                residual[e ^ 1] += bottleneck
            value += bottleneck
        return value, residual[1::2]

    def reachable(self, capacity: list[int], flow: list[int], origin: int = 0) -> set[int]:
        """The nodes reachable from ``origin`` (the source by default) in a
        flow's residual graph, along edges of positive residual capacity.
        From the source of a maximum flow this is the source side of a
        minimum cut."""
        seen = {origin}
        queue = [origin]
        for u in queue:
            for v, e in self.adjacency[u]:
                a = e >> 1
                left = flow[a] if e & 1 else capacity[a] - flow[a]
                if v not in seen and left > 0:
                    seen.add(v)
                    queue.append(v)
        return seen

    def gale_cut(self, capacity: list[int], flow: list[int]) -> tuple[tuple[int, ...], int]:
        """Gale's certificate read off a maximum flow's minimum cut: the
        positions Q of the projects beyond the cut and the budget of the
        supervisors beyond it, rounded down.  The supervisors of Q lie
        beyond the cut, so a count vector c with sum(c[Q]) > bound demands
        more than N(Q) can fund and is infeasible (Gale 1957)."""
        reach = self.reachable(capacity, flow)
        projects = tuple(j for j, (p, _) in enumerate(self.arcs[self.first_sink_arc:])
                         if p not in reach)
        supply = sum(capacity[a] for a, (u, v) in enumerate(self.arcs)
                     if u == 0 and v not in reach)
        return projects, supply // self.scale


class ArcValues(Mapping):
    """Read-only (tail, head) -> Fraction view of scaled per-arc ints."""

    def __init__(self, network: FundingNetwork, scaled: list[int]):
        self._network = network
        self.scaled = scaled  # per-arc values in units of 1/network.scale

    def __getitem__(self, arc: tuple[str, str]) -> Fraction:
        return Fraction(self.scaled[self._network.arc_index[arc]], self._network.scale)

    def __iter__(self):
        return iter(self._network.arc_index)

    def __len__(self) -> int:
        return len(self._network.arc_index)


@dataclass
class FlowGraph:
    """One count vector on an instance's funding network, with an optional
    per-arc flow that fits it for the max-flow to start from."""

    network: FundingNetwork
    scaled: list[int]  # arc capacities in units of 1/network.scale
    start: list[int] | None = None  # per-arc flow, same units; None is zero flow

    @property
    def capacity(self) -> ArcValues:
        """Arc capacities by (tail, head) name."""
        return ArcValues(self.network, self.scaled)


def build_flow_graph(instance: Instance, counts: Mapping[str, int]) -> FlowGraph:
    """Build the funding graph for per-project matched counts."""
    network = FundingNetwork(instance)
    return FlowGraph(network, network.with_counts(_key(instance, counts)))


def max_flow(graph: FlowGraph) -> tuple[Fraction, ArcValues]:
    """Maximum source-sink flow by shortest augmenting paths (Edmonds-Karp).

    Returns the flow value and per-arc flow amounts.  Exact: the kernel
    works in integer units of 1/L, and only the results are divided by L.
    """
    network = graph.network
    value, flow = network.max_flow(graph.scaled, graph.start)
    return Fraction(value, network.scale), ArcValues(network, flow)


def min_cut_reachable(graph: FlowGraph, flow: Mapping[tuple[str, str], Fraction]) -> set[str]:
    """Source side of a saturated cut certifying flow maximality."""
    network, names = graph.network, graph.network.names
    scaled = [flow.get((names[u], names[v]), 0) * network.scale for u, v in network.arcs]
    return {names[v] for v in network.reachable(graph.scaled, scaled)}


def _key(instance: Instance, counts: Mapping[str, int]) -> tuple[int, ...]:
    """Counts in project order, absent projects counting 0."""
    return tuple([counts.get(p, 0) for p in instance.projects])


class SipFeasibility:
    """The budget feasibility function of an instance, over per-project
    matched counts.

    Satisfies heredity (shrinking counts preserves feasibility) and
    anonymity (depends only on counts, never applicant identities).
    Verdicts are memoized; ``calls`` counts every query including cache
    hits, so complexity assertions stay honest.  The funding network is
    built on the first cache miss.

    A miss is first screened against the Gale cuts of earlier infeasible
    vectors: a cut whose projects now demand more than its bound answers
    "infeasible" with one sum.  The last feasible vector meets every cut,
    so only cuts holding a project whose count rose above it can fire,
    and only those are summed.  Otherwise the max-flow starts from the
    last feasible vector's flow, cut down where counts fell.  Any maximum
    flow decides feasibility, so verdicts do not depend on the start.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.calls = 0
        self._cache: dict[tuple[int, ...], bool] = {}
        self._network: FundingNetwork | None = None
        projects = instance.projects
        # counts in project order; a partial mapping raises KeyError
        self._counts_of = (itemgetter(*projects) if len(projects) > 1
                           else lambda counts: tuple([counts[p] for p in projects]))
        # Gale cuts (project positions, bound), listed under each position
        self._cuts: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in projects]
        # the last feasible vector and its per-arc flow; None is zero flow
        self._last_key: tuple[int, ...] = (0,) * len(projects)
        self._last_flow: list[int] | None = None

    def __call__(self, counts: Mapping[str, int]) -> bool:
        self.calls += 1
        try:
            key = self._counts_of(counts)
        except KeyError:
            key = _key(self.instance, counts)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        for j, (was, now) in enumerate(zip(self._last_key, key)):
            if now > was:
                for projects, bound in self._cuts[j]:
                    if sum([key[i] for i in projects]) > bound:
                        self._cache[key] = False
                        return False
        network = self._network
        if network is None:
            network = self._network = FundingNetwork(self.instance)
        capacity = network.with_counts(key)
        value, flow = max_flow(FlowGraph(network, capacity, self._warm_start(key)))
        ok = value == sum(key)
        if ok:
            self._last_key, self._last_flow = key, flow.scaled
        else:
            cut = network.gale_cut(capacity, flow.scaled)
            for j in cut[0]:
                self._cuts[j].append(cut)
        self._cache[key] = ok
        return ok

    def _warm_start(self, key: tuple[int, ...]) -> list[int] | None:
        """A flow that fits ``key``: the last feasible vector's flow, with
        the excess of each project whose count fell taken off its sink arc
        and, in arc order, off its supervisor arcs and their budget arcs."""
        if self._last_flow is None:
            return None  # zero flow fits every count vector
        network = self._network
        start = self._last_flow[:]
        for j, (was, now) in enumerate(zip(self._last_key, key)):
            if now >= was:
                continue
            excess = (was - now) * network.scale
            start[network.first_sink_arc + j] -= excess
            for via, budget in network.feeders[j]:
                take = min(excess, start[via])
                start[via] -= take
                start[budget] -= take
                excess -= take
                if not excess:
                    break
        return start


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
    value, flow = max_flow(build_flow_graph(instance, m.counts(instance)))
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


def to_dot(graph: FlowGraph, flow: Mapping[tuple[str, str], Fraction] | None = None) -> str:
    """DOT rendering of the funding graph, optionally annotated with a flow."""
    lines = ["digraph funding {", "  rankdir=LR;"]
    for (u, v), cap in sorted(graph.capacity.items()):
        label = f"cap={cap}"
        if flow is not None:
            label = f"flow={flow.get((u, v), Fraction(0))}, cap={cap}"
        lines.append(f'  "{u}" -> "{v}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
