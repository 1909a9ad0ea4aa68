"""Leximin-egalitarian funding allocation relative to normative targets.

Given a feasible matching, repeatedly minimize the largest ratio of
funded amount to target over the pairs not yet pinned, then pin the pairs
whose ratio rows carry a nonzero LP dual price: by complementary
slackness they sit at the optimum in every minimax solution (Nace &
Pioro 2008).  Each solve pins at least one pair, so at most |T| LPs are
solved for |T| target pairs.  The resulting sorted ratio vector is the
lexicographic minimum over all feasible funding allocations, and that
allocation is unique; `verify_leximin` checks a candidate level by level
without re-running the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from cutoffmatch.flow import verify_allocation
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
    lp_solves: int
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


def matched_count_targets(instance: Instance, matching: Matching) -> TargetProfile:
    """Targets |M(p)|/|S_p| (lenient mode only: sums exceed 1 when
    |M(p)| > 1, and pairs for unmatched projects get no target)."""
    counts = matching.counts(instance)
    targets: dict[Pair, Fraction] = {}
    for p in instance.projects:
        ss = instance.supervisors_of(p)
        if not ss or counts[p] == 0:
            continue
        for s in ss:
            targets[(s, p)] = Fraction(counts[p], len(ss))
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
    """Run the iterated minimax allocation for a feasible matching: each LP
    solve pins at least one pair, so at most |T| solves; a round is one lam*."""
    if not matching_feasible(instance, matching):
        raise ValueError("matching is not feasible; no funding allocation exists")
    if targets is None:
        targets = default_targets(instance, matching)
    targets.validate(instance, strict=strict)

    counts = matching.counts(instance)
    pairs = sorted(targets.targets)
    lp_solves = rounds = 0
    fixed_value: dict[Pair, Fraction] = {}
    fixed_round: dict[Pair, int] = {}
    last_lam: Fraction | None = None
    allocation: dict[Pair, Fraction] = {}

    while len(fixed_value) < len(pairs):
        lp, names, lam, ratio_rows = _minimax_lp(instance, counts, targets, fixed_value)
        sol = solve_lp(lp)
        lp_solves += 1
        if sol.status != OPTIMAL:
            raise RuntimeError(f"minimax LP unexpectedly {sol.status}")
        lam_star = sol[lam]
        if lam_star != last_lam:
            rounds, last_lam = rounds + 1, lam_star
        # a nonzero dual marks a row tight in every optimum; when lam* > 0
        # the ratio rows' duals sum to -1, so at least one pair is pinned
        tight = [sp for sp, i in ratio_rows.items() if lam_star == 0 or sol.duals[i]]
        if not tight:
            raise RuntimeError("no pair became tight; minimax reasoning violated")
        fixed_value.update(dict.fromkeys(tight, lam_star))
        fixed_round.update(dict.fromkeys(tight, rounds))
        # pairs pinned by the final solve are tight in it, so its solution
        # already sits at every pinned ratio
        allocation = {sp: sol[names[sp]] for sp in pairs}

    ratios = sorted((allocation[sp] / targets.targets[sp] for sp in pairs), reverse=True)
    if not verify_allocation(instance, counts, allocation):
        raise RuntimeError("leximin allocation violates the funding constraints")
    return AllocationResult(allocation, ratios, fixed_round, fixed_value, lp_solves, rounds)


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
