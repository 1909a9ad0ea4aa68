"""The LP loop that `cutoffmatch.egalitarian.egalitarian_allocation`
replaced, kept as the reference the parametric max-flow loop is tested
against.

Each iteration solves the minimax LP over the pairs not yet pinned with
the integer simplex, then pins the pairs whose ratio rows carry a nonzero
dual price: by complementary slackness they sit at the optimum in every
minimax solution (Nace & Pioro 2008).  At most |T| LPs for |T| target
pairs; a round is one value of lam*.
"""

from __future__ import annotations

from fractions import Fraction

from cutoffmatch.egalitarian import (
    AllocationResult,
    Pair,
    TargetProfile,
    _minimax_lp,
    default_targets,
)
from cutoffmatch.flow import verify_allocation
from cutoffmatch.lp import OPTIMAL, solve_lp
from cutoffmatch.model import Instance
from cutoffmatch.stability import Matching, matching_feasible


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
