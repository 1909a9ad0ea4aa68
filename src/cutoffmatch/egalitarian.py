"""Leximin-egalitarian funding allocation relative to normative targets.

Given a feasible matching, repeatedly find the least value lam* of the
largest ratio of funded amount to target over the pairs not yet pinned,
then pin every pair whose ratio is lam* in all allocations that reach it.
Both steps run on the funding network's integer max-flow kernel, with
capacity lam*t on each free pair's arc and pinned funding taken off the
budget and sink arcs.  lam* is the least lam at which the remaining
demand flows through, found by Newton steps on the min-cut function, one
max-flow each (Gallo, Grigoriadis & Tarjan 1989; Megiddo 1974).  A free
pair is pinned when its arc is saturated and no residual path leads from
its supervisor to its project, so it crosses every minimum cut (Picard &
Queyranne 1980).  Each round pins at least one pair and lowers lam*.  The
resulting sorted ratio vector is the lexicographic minimum over all
feasible funding allocations, and that allocation is unique;
`verify_leximin` checks a candidate level by level with LPs, a method
independent of the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from cutoffmatch import flow
from cutoffmatch.flow import SINK, SOURCE, FlowGraph, FundingNetwork, verify_allocation
from cutoffmatch.lp import OPTIMAL, LinearProgram, solve_lp
from cutoffmatch.model import Instance, format_rational
from cutoffmatch.stability import Matching, matching_feasible

Pair = tuple[str, str]


@dataclass(frozen=True)
class TargetProfile:
    """Target share t_{s,p} > 0 per supervisor-project pair.

    Strict mode additionally requires each project's targets to sum to 1;
    lenient mode allows any positive targets (ratios stay well defined).
    """

    targets: Mapping[Pair, Fraction]

    def validate(self, instance: Instance, strict: bool = True) -> None:
        for (s, p), t in self.targets.items():
            if t <= 0:
                raise ValueError(f"target for ({s}, {p}) must be positive, got {t}")
            if s not in instance.supervised:
                raise ValueError(f"unknown supervisor {s!r}")
            if p not in instance.supervised[s]:
                raise ValueError(f"({s}, {p}): supervisor does not supervise project")
        if strict:
            for p in instance.projects:
                ss = instance.supervisors_of(p)
                if not ss:
                    continue
                if any((s, p) not in self.targets for s in ss):
                    raise ValueError(f"project {p}: strict mode needs a target per supervisor")
                total = sum((self.targets[(s, p)] for s in ss), Fraction(0))
                if total != 1:
                    raise ValueError(
                        f"targets for project {p} sum to {total}, expected 1 (strict mode)"
                    )


@dataclass
class AllocationResult:
    allocation: dict[Pair, Fraction]
    ratios: list[Fraction]                  # weakly decreasing
    fixed_round: dict[Pair, int]            # round (value of lam*) that pinned each pair
    fixed_value: dict[Pair, Fraction]       # the pinned ratio
    lp_solves: int                          # 0: the loop solves no LP; `allocate` prints it
    rounds: int

    def to_json_dict(self, targets: TargetProfile) -> dict:
        pairs = []
        for (s, p), x in sorted(self.allocation.items()):
            t = targets.targets[(s, p)]
            pairs.append({
                "supervisor": s,
                "project": p,
                "x": format_rational(x),
                "target": format_rational(t),
                "ratio": format_rational(x / t),
                "round_fixed": self.fixed_round[(s, p)],
            })
        return {"pairs": pairs}


def default_targets(instance: Instance, matching: Matching) -> TargetProfile:
    """Equal split: t = 1/|S_p| for every supervisor of each project.

    Rejects a project that has matched applicants but no supervisor (it
    could never be funded, so the matching cannot be feasible anyway).
    """
    counts = matching.counts(instance)
    targets: dict[Pair, Fraction] = {}
    for p in instance.projects:
        ss = instance.supervisors_of(p)
        if not ss:
            if counts[p] > 0:
                raise ValueError(f"project {p} has matched applicants but no supervisor")
            continue
        share = Fraction(1, len(ss))
        for s in ss:
            targets[(s, p)] = share
    return TargetProfile(targets)


def _feasibility_lp(
    instance: Instance, counts: Mapping[str, int], pairs: list[Pair],
) -> tuple[LinearProgram, dict[Pair, str]]:
    lp = LinearProgram(maximize=False)
    names: dict[Pair, str] = {}
    for s, p in pairs:
        names[(s, p)] = lp.add_variable(f"x_{s}_{p}", Fraction(0))
    for p in instance.projects:
        coeffs = {names[(s, p)]: 1 for s in instance.supervisors_of(p) if (s, p) in names}
        if coeffs or counts.get(p, 0):
            lp.add_constraint(coeffs, "=", counts.get(p, 0))
    for s in instance.supervisors:
        coeffs = {names[(s, p)]: 1 for p in instance.supervised[s] if (s, p) in names}
        if coeffs:
            lp.add_constraint(coeffs, "<=", instance.budgets[s])
    return lp, names


def _minimax_lp(
    instance: Instance, counts: Mapping[str, int], targets: TargetProfile,
    pinned: Mapping[Pair, Fraction],
) -> tuple[LinearProgram, dict[Pair, str], str, dict[Pair, int]]:
    """min lam over feasible funding with ratio x/t pinned for the pairs in
    `pinned` and x/t <= lam for the rest.  Returns the program, the pair
    variables, lam, and each free pair's ratio row index."""
    pairs = sorted(targets.targets)
    lp, names = _feasibility_lp(instance, counts, pairs)
    lam = lp.add_variable("lam", Fraction(0), objective=1)
    ratio_rows: dict[Pair, int] = {}
    for sp in pairs:
        inverse = 1 / targets.targets[sp]
        if sp in pinned:
            lp.add_constraint({names[sp]: inverse}, "=", pinned[sp])
        else:
            ratio_rows[sp] = len(lp.constraints)
            lp.add_constraint({names[sp]: inverse, lam: -1}, "<=", 0)
    return lp, names, lam, ratio_rows


def egalitarian_allocation(
    instance: Instance, matching: Matching, targets: TargetProfile | None = None,
    strict: bool = True,
) -> AllocationResult:
    """Run the iterated minimax allocation for a feasible matching on the
    funding network's max-flow kernel; a round is one lam*.

    Raises ValueError when the matching is infeasible or when the target
    pairs (lenient targets may leave some out) cannot fund it."""
    if not matching_feasible(instance, matching):
        raise ValueError("matching is not feasible; no funding allocation exists")
    if targets is None:
        targets = default_targets(instance, matching)
    targets.validate(instance, strict=strict)

    network = FundingNetwork(instance)
    names, arcs, first_sink = network.names, network.arcs, network.first_sink_arc
    counts = matching.counts(instance)
    # what pinned pairs leave of each budget and sink arc; s -> p arcs stay 0
    left = [Fraction(0)] * first_sink + [Fraction(counts[p]) for p in instance.projects]
    for s in instance.supervisors:
        left[network.arc_index[SOURCE, s]] = instance.budgets[s]
    target = targets.targets
    unit = lcm(*(t.denominator for t in target.values()))
    # the free pairs' arcs, with their targets in units of 1/unit
    free = {network.arc_index[sp]: int(target[sp] * unit) for sp in sorted(target)}
    fixed_value: dict[Pair, Fraction] = {}
    fixed_round: dict[Pair, int] = {}
    rounds = 0

    # demand left with no free pair to carry it makes _least_lambda refuse
    while free or any(left[first_sink:]):
        lam, capacity, flows = _least_lambda(network, left, free, unit)
        rounds += 1
        # a saturated arc s -> p keeps its flow in every maximum flow unless
        # a residual path s ~> p closes a cycle through it (an unsaturated
        # arc is such a path, so testing saturation first only saves searches)
        reach: dict[int, set[int]] = {}
        tight = []
        for a in free:
            u, v = arcs[a]
            if flows[a] == capacity[a]:
                if u not in reach:
                    reach[u] = network.reachable(capacity, flows, u)
                if v not in reach[u]:
                    tight.append(a)
        if not tight:
            raise RuntimeError("no pair became tight; minimax reasoning violated")
        for a in tight:
            u, v = arcs[a]
            s, p = names[u], names[v]
            x = lam * target[s, p]
            left[network.arc_index[SOURCE, s]] -= x
            left[network.arc_index[p, SINK]] -= x
            fixed_value[s, p], fixed_round[s, p] = lam, rounds
            del free[a]

    allocation = {sp: fixed_value[sp] * target[sp] for sp in sorted(target)}
    ratios = sorted(fixed_value.values(), reverse=True)
    if not verify_allocation(instance, counts, allocation):
        raise RuntimeError("leximin allocation violates the funding constraints")
    return AllocationResult(allocation, ratios, fixed_round, fixed_value, 0, rounds)


def _least_lambda(
    network: FundingNetwork, left: list[Fraction], free: Mapping[int, int], unit: int,
) -> tuple[Fraction, list[int], list[int]]:
    """The least lam at which the free arcs, at capacity lam*t, carry the
    demand left on the sink arcs, with that step's arc capacities and a
    maximum flow, both in ints over the step's common denominator.

    Newton steps on the min-cut function from lam = 0: while the flow
    falls short, the free arcs crossing the residual's minimum cut have
    total target b, and lam grows by shortfall/b, to where that cut would
    let the demand through.  b = 0 leaves the cut short at every lam."""
    arcs, first_sink = network.arcs, network.first_sink_arc
    q = lcm(*(x.denominator for x in left))
    fixed = [x.numerator * (q // x.denominator) for x in left]
    need = sum(fixed[first_sink:])
    lam = Fraction(0)
    while True:
        den = lam.denominator * unit
        scale = lcm(q, den)
        grow, per_target = scale // q, lam.numerator * (scale // den)
        capacity = [c * grow for c in fixed]
        for a, t in free.items():
            capacity[a] = per_target * t
        flows = flow.max_flow(FlowGraph(network, capacity))[1].scaled
        short = need * grow - sum(flows[first_sink:])
        if not short:
            return lam, capacity, flows
        reach = network.reachable(capacity, flows)
        b = sum(t for a, t in free.items() if arcs[a][0] in reach and arcs[a][1] not in reach)
        if not b:
            raise ValueError("the target pairs cannot fund the matching; "
                             "no funding allocation exists")
        lam += Fraction(short * unit, scale * b)


def verify_leximin(
    instance: Instance, matching: Matching, targets: TargetProfile,
    allocation: Mapping[Pair, Fraction],
) -> bool:
    """Check that an allocation is the (unique) leximin optimum.

    Walks the allocation's own ratio levels v from the top, with the pairs
    above v pinned at their ratios and every other ratio capped at v.  The
    pairs at v must have no slack in that set: their ratios cannot sum to
    less than v each.  This also proves v is the minimax value there, as a
    smaller one would leave every pair at v some slack.
    """
    counts = matching.counts(instance)
    pairs = sorted(targets.targets)
    if set(allocation) != set(pairs) or not verify_allocation(instance, counts, allocation):
        return False
    ratio = {sp: allocation[sp] / targets.targets[sp] for sp in pairs}

    pinned: dict[Pair, Fraction] = {}
    for v in sorted(set(ratio.values()), reverse=True):
        level = [sp for sp in pairs if ratio[sp] == v]
        lp, names, lam, _ = _minimax_lp(instance, counts, targets, pinned)
        lp.lower[lam] = lp.upper[lam] = v
        lp.objective = {names[sp]: 1 / targets.targets[sp] for sp in level}
        sol = solve_lp(lp)
        if sol.status != OPTIMAL or sol.objective != v * len(level):
            return False
        pinned.update((sp, v) for sp in level)
    return True
