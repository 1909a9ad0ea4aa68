"""Cutoff-decreasing computation of a cutoff stable matching.

Start from cutoffs nobody reaches (inducing the empty matching) and
repeatedly decrement the first project cutoff, in a fixed scan order,
whose decrement keeps the induced matching feasible.  At termination every
cutoff is zero or pinned by infeasibility, i.e. the cutoffs are minimal
and the matching is cutoff stable.

Decrementing one cutoff admits at most one new applicant (the one whose
score equals the new cutoff), so each candidate is evaluated by a single
swap rather than re-inducing from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping

from cutoffmatch.flow import SipFeasibility
from cutoffmatch.model import Instance
from cutoffmatch.stability import CutoffVector, Matching


@dataclass
class TraceEntry:
    project: str
    new_cutoff: int
    matching_size: int
    feasibility_calls: int

    def to_json_dict(self) -> dict:
        return {
            "project": self.project,
            "new_cutoff": self.new_cutoff,
            "matching_size": self.matching_size,
            "feasibility_calls": self.feasibility_calls,
        }


@dataclass
class EngineTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    # feasibility-function evaluations during the solve; at most
    # (|A|+1)*|P|^2: at most (|A|+1)*|P| successful decrements, each after a
    # scan of at most |P| candidates costing at most one evaluation each
    feasibility_calls: int = 0

    def to_json_lines(self) -> str:
        return "".join(json.dumps(e.to_json_dict()) + "\n" for e in self.entries)


def solve(
    instance: Instance,
    feasibility: Callable[[Mapping[str, int]], bool] | None = None,
    project_order: tuple[str, ...] | None = None,
) -> tuple[Matching, CutoffVector, EngineTrace]:
    """Run the cutoff-decreasing algorithm.

    ``feasibility`` is any heredity feasibility function over count
    vectors; defaults to the instance's budget feasibility.  ``project_order``
    is the scan order (defaults to instance project order).  Always
    terminates; the result is fair, feasible, and cutoff stable.
    """
    if feasibility is None:
        feasibility = SipFeasibility(instance)
    order = tuple(project_order) if project_order is not None else instance.projects
    if sorted(order) != sorted(instance.projects):
        raise ValueError("project_order must be a permutation of the projects")

    calls = 0

    def feasible(counts: Mapping[str, int]) -> bool:
        nonlocal calls
        calls += 1
        return feasibility(counts)

    top = instance.max_cutoff()
    cutoffs = {p: top for p in instance.projects}
    matched: dict[str, str] = {}  # applicant -> project
    counts = {p: 0 for p in instance.projects}
    # applicant scoring d-1 at p, for O(1) decrement probes
    by_score: dict[str, dict[int, str]] = {
        p: {z: a for a, z in instance.scores_at(p).items()} for p in instance.projects
    }
    trace = EngineTrace()

    def candidate_after_decrement(p: str) -> tuple[str, str | None] | None:
        """The single applicant whose assignment changes when d(p) drops by
        one, with her old project; None if the matching is unchanged."""
        new_cut = cutoffs[p] - 1
        a = by_score[p].get(new_cut)
        if a is None:
            return None
        old = matched.get(a)
        if not instance.prefers(a, p, old):
            return None
        return a, old

    progressed = True
    while progressed:
        progressed = False
        for p in order:
            if cutoffs[p] == 0:
                continue
            move = candidate_after_decrement(p)
            if move is None:
                cutoffs[p] -= 1  # no applicant admitted: matching unchanged
                applied = True
            else:
                a, old = move
                if counts[p] + 1 > instance.capacities[p]:
                    applied = False
                else:
                    counts[p] += 1
                    if old is not None:
                        counts[old] -= 1
                    if feasible(counts):
                        cutoffs[p] -= 1
                        matched[a] = p
                        applied = True
                    else:
                        counts[p] -= 1
                        if old is not None:
                            counts[old] += 1
                        applied = False
            if applied:
                trace.entries.append(
                    TraceEntry(p, cutoffs[p], len(matched), calls)
                )
                progressed = True
                break  # restart the scan from the front

    trace.feasibility_calls = calls
    matching = Matching(frozenset((a, p) for a, p in matched.items()))
    return matching, CutoffVector(cutoffs), trace
