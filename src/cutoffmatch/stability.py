"""Matchings, cutoff vectors, and the stability hierarchy.

Three nested stability notions sit above fairness: weak, cutoff, and
strong.  All of them start from the same blocking-pair definition and
differ in which blocking pairs are tolerated:

* weak: adding the blocking applicant on top of the current matching
  (keeping her old contract) would break budget feasibility;
* cutoff: moving her would break feasibility, or some better-ranked rival
  who also wants the project cannot be moved in either, or the project is
  full;
* strong: moving her (dropping her old contract) would break feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from cutoffmatch.flow import SipFeasibility
from cutoffmatch.model import Instance

LEVELS = ("infeasible", "unfair", "fair", "weak", "cutoff", "strong")


@dataclass(frozen=True)
class Matching:
    """A set of (applicant, project) pairs."""

    pairs: frozenset[tuple[str, str]]

    @cached_property
    def _project_by_applicant(self) -> dict[str, str]:
        index: dict[str, str] = {}
        for a, p in self.pairs:
            index.setdefault(a, p)  # an applicant holding two keeps the first
        return index

    @cached_property
    def _applicants_by_project(self) -> dict[str, frozenset[str]]:
        index: dict[str, set[str]] = {}
        for a, p in self.pairs:
            index.setdefault(p, set()).add(a)
        return {p: frozenset(applicants) for p, applicants in index.items()}

    def project_of(self, applicant: str) -> str | None:
        return self._project_by_applicant.get(applicant)

    def applicants_at(self, project: str) -> frozenset[str]:
        return self._applicants_by_project.get(project, frozenset())

    def counts(self, instance: Instance) -> dict[str, int]:
        counts = {p: 0 for p in instance.projects}
        for _, p in self.pairs:
            counts[p] += 1
        return counts

    def is_valid(self, instance: Instance) -> bool:
        """Per-applicant uniqueness, mutual acceptability, capacities."""
        seen = set()
        for a, p in self.pairs:
            if a in seen:
                return False
            seen.add(a)
            if a not in instance.scores_at(p) or p not in instance.ranks_of(a):
                return False
        for p, c in self.counts(instance).items():
            if c > instance.capacities[p]:
                return False
        return True

    def sorted_pairs(self, instance: Instance) -> list[tuple[str, str]]:
        """Pairs by applicant position, then project position; ids the
        instance lacks come after the known ones, by id."""
        a_pos = {a: (i, "") for i, a in enumerate(instance.applicants)}
        p_pos = {p: (j, "") for j, p in enumerate(instance.projects)}
        return sorted(self.pairs, key=lambda ap: (
            a_pos.get(ap[0], (len(a_pos), ap[0])), p_pos.get(ap[1], (len(p_pos), ap[1]))
        ))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class CutoffVector:
    """Per-project integer cutoffs in [0, |A|+1]."""

    cutoffs: Mapping[str, int]

    def __getitem__(self, project: str) -> int:
        return self.cutoffs[project]

    def decremented(self, project: str) -> "CutoffVector":
        d = dict(self.cutoffs)
        d[project] -= 1
        return CutoffVector(d)


@dataclass
class StabilityVerdict:
    """Classification of a matching plus the pairs blocking the next level."""

    level: str
    witnesses: list[dict] = field(default_factory=list)

    def at_least(self, level: str) -> bool:
        return LEVELS.index(self.level) >= LEVELS.index(level)

    def to_json_dict(self) -> dict:
        return {"level": self.level, "witnesses": self.witnesses}


# -- feasibility of matching edits (count-vector semantics) ---------------


def matching_feasible(instance: Instance, matching: Matching,
                      feas: SipFeasibility | None = None) -> bool:
    feas = feas or SipFeasibility(instance)
    return matching.is_valid(instance) and feas(matching.counts(instance))


# -- blocking pairs and fairness -----------------------------------------


def blocking_pairs(instance: Instance, matching: Matching) -> list[tuple[str, str]]:
    """All blocking pairs, applicant-major then by the applicant's preference."""
    out = []
    for a in instance.applicants:
        current = matching.project_of(a)
        for p in instance.applicant_prefs[a]:
            if not instance.prefers(a, p, current):
                break  # prefs are scanned best-first; rest are worse
            if (a, p) in matching.pairs:
                continue
            assigned = matching.applicants_at(p)
            under_capacity = (
                len(assigned) < instance.capacities[p]
                and instance.score(a, p) is not None
            )
            outranks_someone = any(
                instance.project_prefers(p, a, b) for b in assigned
            )
            if under_capacity or outranks_someone:
                out.append((a, p))
    return out


def is_fair(instance: Instance, matching: Matching) -> tuple[bool, list[tuple[str, str]]]:
    """No justified envy: nobody prefers a project that admitted someone it
    ranks below her.  Returns (fair, envy witnesses)."""
    witnesses = []
    for a in instance.applicants:
        current = matching.project_of(a)
        for p in instance.applicant_prefs[a]:
            if not instance.prefers(a, p, current):
                break
            if any(instance.project_prefers(p, a, b) for b in matching.applicants_at(p)):
                witnesses.append((a, p))
    return not witnesses, witnesses


# -- cutoffs --------------------------------------------------------------


def induce(instance: Instance, cutoffs: CutoffVector) -> Matching:
    """The matching induced by cutoffs: each applicant takes her best
    project where her score reaches the cutoff.

    The result is *unchecked*: it may violate capacities or feasibility;
    callers validate separately.
    """
    pairs = []
    for a in instance.applicants:
        for p in instance.applicant_prefs[a]:
            z = instance.score(a, p)
            if z is not None and z >= cutoffs[p]:
                pairs.append((a, p))
                break
    return Matching(frozenset(pairs))


def cutoffs_for(instance: Instance, matching: Matching) -> CutoffVector:
    """Canonical cutoffs inducing a fair matching: per project, the score of
    the lowest-ranked admitted applicant, or |A|+1 for empty projects."""
    fair, witnesses = is_fair(instance, matching)
    if not fair:
        raise ValueError(f"matching is unfair (no cutoffs induce it): {witnesses}")
    cut = {}
    for p in instance.projects:
        assigned = matching.applicants_at(p)
        if assigned:
            cut[p] = min(instance.score(a, p) for a in assigned)
        else:
            cut[p] = instance.max_cutoff()
    return CutoffVector(cut)


# -- classification -------------------------------------------------------


def check_stability(instance: Instance, matching: Matching,
                    feas: SipFeasibility | None = None) -> StabilityVerdict:
    """Classify a matching at the highest stability level it satisfies.

    Levels: infeasible < unfair < fair < weak < cutoff < strong.  The
    "fair" level covers matchings that are feasible and envy-free but
    wasteful (some blocking pair could simply be added).  Witnesses name
    the blocking pairs that break the next level up.
    """
    feas = feas or SipFeasibility(instance)
    if not matching_feasible(instance, matching, feas):
        return StabilityVerdict("infeasible")
    fair, envy = is_fair(instance, matching)
    if not fair:
        return StabilityVerdict(
            "unfair",
            [{"applicant": a, "project": p, "reason": "justified-envy"} for a, p in envy],
        )

    blockers = blocking_pairs(instance, matching)
    counts = matching.counts(instance)

    def probe(a: str, p: str, drop: str | None) -> bool:
        """Feasibility of M + (a,p) - (a,drop), from the count vector alone.

        M is valid, so only the new pair's acceptability and p's capacity
        can break validity: this is augment_feasible (drop=None) or
        swap_feasible (drop=M(a)) of tests/stability_reference.py without
        rebuilding the matching."""
        if not instance.mutually_acceptable(a, p) or counts[p] >= instance.capacities[p]:
            return False
        probed = dict(counts)
        probed[p] += 1
        if drop is not None:
            probed[drop] -= 1
        return feas(probed)

    def outranked_by_all(a: str, p: str) -> bool:
        return all(instance.project_prefers(p, b, a) for b in matching.applicants_at(p))

    def tolerated_weak(a: str, p: str) -> bool:
        return outranked_by_all(a, p) and not probe(a, p, None)

    def tolerated_cutoff(a: str, p: str) -> bool:
        if counts[p] >= instance.capacities[p]:
            return True
        if not probe(a, p, matching.project_of(a)):
            return True
        # a better-ranked rival outside M(p) who also wants p and cannot move
        for b in instance.project_prefs[p]:
            if b == a or not instance.project_prefers(p, b, a):
                continue
            if (b, p) in matching.pairs:
                continue
            old = matching.project_of(b)
            if instance.prefers(b, p, old) and not probe(b, p, old):
                return True
        return False

    def tolerated_strong(a: str, p: str) -> bool:
        return outranked_by_all(a, p) and not probe(a, p, matching.project_of(a))

    # each rung: the level a matching stays at when some blocking pair is
    # not tolerated, and the reason its witnesses carry
    for level, reason, tolerated in (("fair", "weakly-wasteful", tolerated_weak),
                                     ("weak", "cutoff-wasteful", tolerated_cutoff),
                                     ("cutoff", "strongly-wasteful", tolerated_strong)):
        breakers = [(a, p) for a, p in blockers if not tolerated(a, p)]
        if breakers:
            return StabilityVerdict(level, [
                {"applicant": a, "project": p, "reason": reason} for a, p in breakers
            ])
    return StabilityVerdict("strong")


def pareto_dominates(instance: Instance, m1: Matching, m2: Matching) -> bool:
    """True iff every applicant weakly prefers her m1 project (unmatched is
    worst) and at least one strictly prefers it."""
    strict = False
    for a in instance.applicants:
        p1, p2 = m1.project_of(a), m2.project_of(a)
        if p1 == p2:
            continue
        if p1 is None:
            return False  # lost her match
        if not instance.prefers(a, p1, p2):
            return False
        strict = True
    return strict
