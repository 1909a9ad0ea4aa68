"""The matching-level probes that `cutoffmatch.stability.check_stability`
replaced with count arithmetic, kept as the reference it is tested against.

Each probe rebuilds the edited matching (or its count vector) and asks the
feasibility function directly.  Slow, but every step is the definition.
"""

from __future__ import annotations

from cutoffmatch.flow import SipFeasibility
from cutoffmatch.model import Instance
from cutoffmatch.stability import Matching, matching_feasible


def augment_feasible(instance: Instance, matching: Matching, applicant: str,
                     project: str, feas: SipFeasibility) -> bool:
    """Feasibility of M + (a,p) with a keeping her old contract.

    The applicant may briefly hold two contracts, so only the count vector
    and the target project's capacity/acceptability matter.
    """
    if not instance.mutually_acceptable(applicant, project):
        return False
    counts = matching.counts(instance)
    if counts[project] + 1 > instance.capacities[project]:
        return False
    counts[project] += 1
    return feas(counts)


def swap_feasible(instance: Instance, matching: Matching, applicant: str,
                  project: str, feas: SipFeasibility) -> bool:
    """Feasibility of (M + (a,p)) - (a, M(a)): a moves to p."""
    old = matching.project_of(applicant)
    pairs = set(matching.pairs)
    if old is not None:
        pairs.discard((applicant, old))
    pairs.add((applicant, project))
    moved = Matching(frozenset(pairs))
    return matching_feasible(instance, moved, feas)


def is_unconstrained(instance: Instance, matching: Matching, project: str,
                     feas: SipFeasibility | None = None) -> bool:
    """True iff any one additional (mutually acceptable) applicant could
    join the project without breaking validity or feasibility."""
    feas = feas or SipFeasibility(instance)
    candidates = [
        a for a in instance.project_prefs[project]
        if project in instance.ranks_of(a) and (a, project) not in matching.pairs
    ]
    return all(augment_feasible(instance, matching, a, project, feas) for a in candidates)
