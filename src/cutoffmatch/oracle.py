"""Brute-force ground truth for small instances.

Enumerates every valid feasible matching, classifies stability levels
exhaustively, and builds the stable-marriage-with-ties reduction instances
used to cross-validate the strong-stability and maximum-size machinery.
Everything here is exponential and guarded by a size limit
(CUTOFFMATCH_GUARD overrides).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Mapping

from cutoffmatch.flow import SipFeasibility
from cutoffmatch.model import Instance, make_instance
from cutoffmatch.stability import Matching, StabilityVerdict, check_stability

DEFAULT_GUARD = 10


def size_guard(override: int | None = None) -> int:
    """The enumeration size limit: ``override`` if given, else the
    CUTOFFMATCH_GUARD environment variable, else DEFAULT_GUARD.  Raises
    ValueError when the variable is not a non-negative integer."""
    if override is not None:
        return override
    env = os.environ.get("CUTOFFMATCH_GUARD")
    if not env:
        return DEFAULT_GUARD
    try:
        limit = int(env)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"CUTOFFMATCH_GUARD must be a non-negative integer, not {env!r}")
    return limit


class GuardExceeded(RuntimeError):
    pass


def _check_guard(instance: Instance, guard: int | None) -> None:
    limit = size_guard(guard)
    if len(instance.applicants) > limit:
        raise GuardExceeded(
            f"{len(instance.applicants)} applicants exceeds enumeration guard {limit}"
        )


def enumerate_matchings(instance: Instance, guard: int | None = None,
                        feas: SipFeasibility | None = None,
                        fair_only: bool = False) -> Iterator[Matching]:
    """Every valid feasible matching (every fair one, with ``fair_only``),
    exactly once, in deterministic order.

    Recursive applicant-by-applicant assignment (unmatched first, then the
    applicant's preference order) with capacity pruning; budget feasibility
    filtered at the leaves through ``feas``, the caller's memoized
    feasibility function (a fresh one by default).

    With ``fair_only`` the walk skips the unfair matchings and keeps the
    order of the rest: justified envy between two placed applicants never
    changes as later applicants are placed, so a placement that creates
    envy with an earlier applicant, in either direction, is rejected at
    once.
    """
    _check_guard(instance, guard)
    feas = feas or SipFeasibility(instance)
    applicants = instance.applicants
    counts = {p: 0 for p in instance.projects}
    placed: list[tuple[str, str | None]] = []  # (applicant, project or None if unmatched)

    def options(a: str) -> list[str | None]:
        return [None] + [
            p for p in instance.applicant_prefs[a]
            if instance.score(a, p) is not None
        ]

    def envies(a: str, q: str | None, b: str, p: str | None) -> bool:
        """``a``, placed at ``q``, prefers ``b``'s project ``p``, which
        ranks ``a`` above ``b``."""
        return (p is not None and instance.prefers(a, p, q)
                and instance.project_prefers(p, a, b))

    def creates_envy(a: str, q: str | None) -> bool:
        return any(envies(a, q, b, p) or envies(b, p, a, q) for b, p in placed)

    def rec(i: int) -> Iterator[Matching]:
        if i == len(applicants):
            if feas(counts):
                yield Matching(frozenset((a, q) for a, q in placed if q is not None))
            return
        a = applicants[i]
        for q in options(a):
            if q is not None and counts[q] + 1 > instance.capacities[q]:
                continue
            if fair_only and creates_envy(a, q):
                continue
            if q is not None:
                counts[q] += 1
            placed.append((a, q))
            yield from rec(i + 1)
            placed.pop()
            if q is not None:
                counts[q] -= 1

    return rec(0)


def classify_all(instance: Instance, guard: int | None = None) -> dict[Matching, StabilityVerdict]:
    """check_stability over every enumerated matching."""
    feas = SipFeasibility(instance)
    return {
        m: check_stability(instance, m, feas)
        for m in enumerate_matchings(instance, guard, feas)
    }


def stable_sets(instance: Instance, guard: int | None = None) -> dict[str, list[Matching]]:
    """Matchings at each level at-least: keys weak, cutoff, strong."""
    table = classify_all(instance, guard)
    out: dict[str, list[Matching]] = {"weak": [], "cutoff": [], "strong": []}
    for m, verdict in table.items():
        for level in out:
            if verdict.at_least(level):
                out[level].append(m)
    return out


# Strong and cutoff stability both imply fairness, so the searches below
# walk only the fair matchings.


def exists_strongly_stable(instance: Instance, guard: int | None = None) -> bool:
    feas = SipFeasibility(instance)
    return any(
        check_stability(instance, m, feas).level == "strong"
        for m in enumerate_matchings(instance, guard, feas, fair_only=True)
    )


def max_cutoff_stable_bruteforce(
    instance: Instance, guard: int | None = None
) -> tuple[int, list[Matching]]:
    """Maximum size over cutoff stable matchings, with every witness."""
    feas = SipFeasibility(instance)
    best = 0
    witnesses: list[Matching] = []
    for m in enumerate_matchings(instance, guard, feas, fair_only=True):
        if not check_stability(instance, m, feas).at_least("cutoff"):
            continue
        if len(m) > best:
            best = len(m)
            witnesses = [m]
        elif len(m) == best:
            witnesses.append(m)
    return best, witnesses


# -- restricted SMTI -----------------------------------------------------


@dataclass(frozen=True)
class SmtiInstance:
    """Stable marriage with incomplete lists where men are strict and each
    woman is either strict or holds a single tie of exactly two men."""

    men: tuple[str, ...]
    men_prefs: Mapping[str, tuple[str, ...]]
    women_strict: Mapping[str, tuple[str, ...]]
    women_tie: Mapping[str, tuple[str, str]]

    def __post_init__(self):
        for w, (m1, m2) in self.women_tie.items():
            if m1 == m2:
                raise ValueError(f"tie of woman {w} must name two distinct men")
        for m in self.men:
            for w in self.men_prefs[m]:
                if w not in self.women_strict and w not in self.women_tie:
                    raise ValueError(f"man {m} lists unknown woman {w}")
                if m not in self.acceptable_men(w):
                    raise ValueError(f"({m}, {w}) not mutually acceptable")
        for w in self.women():
            for m in self.acceptable_men(w):
                if w not in self.men_prefs.get(m, ()):
                    raise ValueError(f"({m}, {w}) not mutually acceptable")

    def women(self) -> tuple[str, ...]:
        return tuple(self.women_strict) + tuple(self.women_tie)

    def acceptable_men(self, w: str) -> tuple[str, ...]:
        if w in self.women_strict:
            return self.women_strict[w]
        return self.women_tie[w]

    def woman_strictly_prefers(self, w: str, m: str, over: str | None) -> bool:
        """Tie women never strictly prefer one listed man to the other."""
        acc = self.acceptable_men(w)
        if m not in acc:
            return False
        if over is None:
            return True
        if w in self.women_tie:
            return False  # both listed men are tied
        return acc.index(m) < acc.index(over)

    def man_strictly_prefers(self, m: str, w: str, over: str | None) -> bool:
        prefs = self.men_prefs[m]
        if w not in prefs:
            return False
        if over is None:
            return True
        return prefs.index(w) < prefs.index(over)


def smti_weakly_stable_bruteforce(smti: SmtiInstance, guard: int | None = None) -> tuple[int, bool]:
    """(maximum weakly stable size, does a complete weakly stable matching
    exist).  Complete means every man and every woman is matched."""
    limit = size_guard(guard)
    if len(smti.men) > limit:
        raise GuardExceeded(f"{len(smti.men)} men exceeds guard {limit}")
    women = smti.women()
    best = -1
    has_complete = False
    for assignment in itertools.product(
        *[(None, *smti.men_prefs[m]) for m in smti.men]
    ):
        used = [w for w in assignment if w is not None]
        if len(set(used)) != len(used):
            continue
        matched = dict(zip(smti.men, assignment))
        partner = {w: m for m, w in matched.items() if w is not None}
        blocked = any(
            smti.man_strictly_prefers(m, w, matched[m])
            and smti.woman_strictly_prefers(w, m, partner.get(w))
            for m in smti.men
            for w in smti.men_prefs[m]
        )
        if blocked:
            continue
        size = len(used)
        best = max(best, size)
        if size == len(smti.men) and size == len(women):
            has_complete = True
    return max(best, 0), has_complete


# -- reductions ----------------------------------------------------------


def reduce_smti_strong(smti: SmtiInstance) -> Instance:
    """Build the internship instance whose strongly stable matchings mirror
    the SMTI instance's complete weakly stable matchings.

    One capacity-one project with a dedicated unit-budget supervisor per
    man; one applicant per strict woman; a four-cycle gadget (two strongly
    stable matchings covering different applicants) per tie woman, linked
    through its first and third applicants; and one copy of the unsolvable
    two-project gadget whose top applicant prefers every man-project,
    so instability leaks out unless every man-project fills with a better
    applicant.
    """
    applicants: list[str] = []
    applicant_prefs: dict[str, list[str]] = {}
    project_prefs: dict[str, list[str]] = {}
    capacities: dict[str, int] = {}
    supervised: dict[str, list[str]] = {}
    budgets: dict[str, int] = {}
    projects: list[str] = []
    supervisors: list[str] = []

    def add_project(p: str, prefs: list[str], sups: list[str]) -> None:
        projects.append(p)
        project_prefs[p] = prefs
        capacities[p] = 1
        for s in sups:
            if s not in supervised:
                supervisors.append(s)
                supervised[s] = []
                budgets[s] = 1
            supervised[s].append(p)

    man_project = {m: f"P[{m}]" for m in smti.men}

    # projects for the men; applicant lists filled below
    for m in smti.men:
        add_project(man_project[m], [], [f"S[{m}]"])

    # applicants for strict women
    for w, men in smti.women_strict.items():
        a = f"A[{w}]"
        applicants.append(a)
        applicant_prefs[a] = [man_project[m] for m in men]

    # four-cycle gadget per tie woman
    tie_rep: dict[tuple[str, str], str] = {}  # (woman, man) -> linked gadget applicant
    for w, (m1, m2) in smti.women_tie.items():
        ap = [f"G[{w}]a{i}" for i in range(1, 5)]
        pr = [f"G[{w}]p{i}" for i in range(1, 5)]
        applicants.extend(ap)
        applicant_prefs[ap[0]] = [pr[1], pr[0], man_project[m1]]
        applicant_prefs[ap[1]] = [pr[2], pr[1]]
        applicant_prefs[ap[2]] = [pr[3], pr[2], man_project[m2]]
        applicant_prefs[ap[3]] = [pr[0], pr[3]]
        add_project(pr[0], [ap[0], ap[3]], [f"G[{w}]s1"])
        add_project(pr[1], [ap[1], ap[0]], [f"G[{w}]s2"])
        add_project(pr[2], [ap[2], ap[1]], [f"G[{w}]s1"])
        add_project(pr[3], [ap[3], ap[2]], [f"G[{w}]s3"])
        tie_rep[(w, m1)] = ap[0]
        tie_rep[(w, m2)] = ap[2]

    # men's project preference lists mirror their SMTI lists
    for m in smti.men:
        prefs = []
        for w in smti.men_prefs[m]:
            if w in smti.women_strict:
                prefs.append(f"A[{w}]")
            else:
                prefs.append(tie_rep[(w, m)])
        project_prefs[man_project[m]] = prefs

    # unsolvable gadget plus the leak applicant
    g1, g2 = "G*p1", "G*p2"
    b1, b2, star = "G*a1", "G*a2", "A*"
    applicants.extend([b1, b2, star])
    applicant_prefs[b1] = [g2, g1]
    applicant_prefs[b2] = [g1, g2]
    applicant_prefs[star] = [man_project[m] for m in smti.men] + [g1]
    add_project(g1, [star, b1, b2], ["G*s"])
    # second gadget project shares the single gadget supervisor
    projects.append(g2)
    project_prefs[g2] = [star, b2, b1]
    capacities[g2] = 1
    supervised["G*s"].append(g2)
    for m in smti.men:
        project_prefs[man_project[m]].append(star)

    return make_instance(
        applicants=applicants,
        applicant_prefs=applicant_prefs,
        project_prefs=project_prefs,
        capacities=capacities,
        supervised=supervised,
        budgets=budgets,
        projects=projects,
        supervisors=supervisors,
    )


def reduce_smti_maxsize(smti: SmtiInstance) -> tuple[Instance, int]:
    """Build the instance whose maximum cutoff stable size equals the SMTI
    instance's maximum weakly stable size (offset 0).

    Strict women become ordinary capacity-one projects; each tie woman
    becomes a copy of the unsolvable two-project gadget over her two men,
    replacing her spot in both men's preference lists.
    """
    applicant = {m: f"A[{m}]" for m in smti.men}
    applicants = [applicant[m] for m in smti.men]
    applicant_prefs: dict[str, list[str]] = {a: [] for a in applicants}
    project_prefs: dict[str, list[str]] = {}
    capacities: dict[str, int] = {}
    supervised: dict[str, list[str]] = {}
    budgets: dict[str, int] = {}
    projects: list[str] = []
    supervisors: list[str] = []

    for m in smti.men:
        for w in smti.men_prefs[m]:
            if w in smti.women_strict:
                applicant_prefs[applicant[m]].append(f"P[{w}]")
            else:
                m1, m2 = smti.women_tie[w]
                if m == m1:
                    applicant_prefs[applicant[m]].extend([f"P[{w}]2", f"P[{w}]1"])
                else:
                    applicant_prefs[applicant[m]].extend([f"P[{w}]1", f"P[{w}]2"])

    for w, men in smti.women_strict.items():
        p = f"P[{w}]"
        projects.append(p)
        project_prefs[p] = [applicant[m] for m in men]
        capacities[p] = 1
        s = f"S[{w}]"
        supervisors.append(s)
        supervised[s] = [p]
        budgets[s] = 1
    for w, (m1, m2) in smti.women_tie.items():
        p1, p2 = f"P[{w}]1", f"P[{w}]2"
        projects.extend([p1, p2])
        project_prefs[p1] = [applicant[m1], applicant[m2]]
        project_prefs[p2] = [applicant[m2], applicant[m1]]
        capacities[p1] = capacities[p2] = 1
        s = f"S[{w}]"
        supervisors.append(s)
        supervised[s] = [p1, p2]
        budgets[s] = 1

    instance = make_instance(
        applicants=applicants,
        applicant_prefs=applicant_prefs,
        project_prefs=project_prefs,
        capacities=capacities,
        supervised=supervised,
        budgets=budgets,
        projects=projects,
        supervisors=supervisors,
    )
    return instance, 0
