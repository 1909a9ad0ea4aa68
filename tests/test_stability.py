"""Stability classification, cross-checked against independent oracles:

- cutoff stability against exhaustive enumeration of cutoff vectors that
  are minimal in the single-decrement sense,
- strong stability against a direct swap-feasibility scan,
- weak stability against the zero-cutoffs-at-unconstrained-projects
  characterization.
"""

import itertools
import random

import pytest

from conftest import M, pair_sets, random_instance

from cutoffmatch.flow import SipFeasibility
from cutoffmatch.model import GADGET_NAMES, gadget
from cutoffmatch.oracle import enumerate_matchings
from cutoffmatch.stability import (
    LEVELS,
    CutoffVector,
    Matching,
    blocking_pairs,
    check_stability,
    cutoffs_for,
    induce,
    is_fair,
    matching_feasible,
    pareto_dominates,
)
from stability_reference import augment_feasible, is_unconstrained, swap_feasible

SMALL_SWEEP = [random_instance(seed, max_applicants=5, max_projects=4,
                               max_supervisors=3, density="7/10")
               for seed in range(20)]


# -- independent predicates ----------------------------------------------

def minimal_vector_induced(instance, feas=None):
    """All matchings induced by minimal cutoff vectors, by enumeration:
    a vector is minimal when every single-project decrement either hits 0
    or induces an infeasible matching."""
    feas = feas or SipFeasibility(instance)
    top = instance.max_cutoff()
    out = set()
    for v in itertools.product(range(top + 1), repeat=len(instance.projects)):
        d = dict(zip(instance.projects, v))
        m = induce(instance, CutoffVector(d))
        if not matching_feasible(instance, m, feas):
            continue
        minimal = True
        for p in instance.projects:
            if d[p] == 0:
                continue
            dec = dict(d)
            dec[p] -= 1
            if matching_feasible(instance, induce(instance, CutoffVector(dec)), feas):
                minimal = False
                break
        if minimal:
            out.add(m.pairs)
    return out


def strongly_stable_direct(instance, matching, feas):
    """Fair, feasible, and no blocking pair can swap in feasibly."""
    if not matching_feasible(instance, matching, feas):
        return False
    if not is_fair(instance, matching)[0]:
        return False
    return all(
        not swap_feasible(instance, matching, a, p, feas)
        for a, p in blocking_pairs(instance, matching)
    )


def weakly_stable_direct(instance, matching, feas):
    """Fair, feasible, and no blocking pair can be added feasibly."""
    if not matching_feasible(instance, matching, feas):
        return False
    if not is_fair(instance, matching)[0]:
        return False
    return all(
        not augment_feasible(instance, matching, a, p, feas)
        for a, p in blocking_pairs(instance, matching)
    )


# -- matching helpers ----------------------------------------------------

def test_matching_lookups():
    inst = gadget("example3_cycle")
    m = M(("a1", "p1"), ("a2", "p2"))
    assert m.project_of("a1") == "p1"
    assert m.project_of("a3") is None
    assert m.applicants_at("p2") == frozenset({"a2"})
    assert m.counts(inst) == {"p1": 1, "p2": 1, "p3": 0, "p4": 0}
    assert len(m) == 2


def test_matching_validity():
    inst = gadget("example1")
    assert M(("a1", "p2")).is_valid(inst)
    assert not M(("a1", "p1"), ("a1", "p2")).is_valid(inst)   # duplicate applicant
    assert not M(("a1", "p2"), ("a2", "p2")).is_valid(inst)   # over capacity


# -- blocking pairs and fairness -----------------------------------------

def test_blocking_pairs_empty_matching():
    inst = gadget("example2_unsolvable")
    # everybody's whole list blocks against the empty matching
    assert blocking_pairs(inst, M()) == [
        ("a1", "p2"), ("a1", "p1"), ("a2", "p1"), ("a2", "p2"),
    ]


def test_blocking_pairs_stop_at_current_project():
    inst = gadget("example2_unsolvable")
    # a2 does not block through p1: it is at capacity with a preferred
    # applicant
    assert blocking_pairs(inst, M(("a1", "p1"))) == [
        ("a1", "p2"), ("a2", "p2"),
    ]


def test_is_fair_spots_justified_envy():
    inst = gadget("example2_unsolvable")
    # a2 envies a1 at p2, where p2 ranks a2 first
    fair, witnesses = is_fair(inst, M(("a1", "p2")))
    assert not fair
    assert witnesses == [("a2", "p2")]


def test_is_fair_empty_matching():
    inst = gadget("example2_unsolvable")
    assert is_fair(inst, M())[0]


# -- cutoffs --------------------------------------------------------------

def test_induce_takes_best_admissible():
    inst = gadget("example2_unsolvable")
    assert induce(inst, CutoffVector({"p1": 2, "p2": 3})) == M(("a1", "p1"))
    assert induce(inst, CutoffVector({"p1": 0, "p2": 0})) == M(("a1", "p2"), ("a2", "p1"))
    assert induce(inst, CutoffVector({"p1": 3, "p2": 3})) == M()


def test_cutoffs_round_trip_on_fair_matchings():
    # fair matchings are exactly the cutoff-induced ones
    for name in GADGET_NAMES:
        inst = gadget(name)
        for m in enumerate_matchings(inst):
            fair, _ = is_fair(inst, m)
            if fair:
                assert induce(inst, cutoffs_for(inst, m)) == m
            else:
                with pytest.raises(ValueError):
                    cutoffs_for(inst, m)


def test_every_feasible_induced_matching_is_fair():
    for name in ("example2_unsolvable", "thm7_item4"):
        inst = gadget(name)
        top = inst.max_cutoff()
        for v in itertools.product(range(top + 1), repeat=len(inst.projects)):
            m = induce(inst, CutoffVector(dict(zip(inst.projects, v))))
            if m.is_valid(inst):
                assert is_fair(inst, m)[0]


def test_is_unconstrained():
    inst = gadget("example1")
    feas = SipFeasibility(inst)
    # p1 cannot absorb anyone (7/10 < 1), p2 can fund exactly one
    assert not is_unconstrained(inst, M(), "p1", feas)
    assert is_unconstrained(inst, M(), "p2", feas)
    assert not is_unconstrained(inst, M(("a2", "p2")), "p2", feas)


# -- classification: named gadget instances ------------------------------

def test_levels_enum_order():
    assert LEVELS == ("infeasible", "unfair", "fair", "weak", "cutoff", "strong")


def test_example4_level_separation():
    inst = gadget("example4_distinct")
    cases = {
        M(("a1", "p1"), ("a2", "p2")): "strong",
        M(("a1", "p2"), ("a2", "p1")): "strong",
        M(("a1", "p2"), ("a3", "p3")): "cutoff",
        M(("a1", "p3"), ("a2", "p1")): "weak",
    }
    for m, want in cases.items():
        assert check_stability(inst, m).level == want, m


def test_example2_empty_matching_is_fair_but_not_weakly_stable():
    inst = gadget("example2_unsolvable")
    verdict = check_stability(inst, M())
    assert verdict.level == "fair"
    assert verdict.witnesses  # blocking pairs that could feasibly join


def test_infeasible_and_unfair_levels():
    inst = gadget("example1")
    assert check_stability(inst, M(("a2", "p1"))).level == "infeasible"
    assert check_stability(inst, M(("a1", "p2"), ("a2", "p1"))).level == "infeasible"
    inst2 = gadget("example2_unsolvable")
    assert check_stability(inst2, M(("a1", "p2"))).level == "unfair"


def test_verdict_json_shape():
    inst = gadget("example4_distinct")
    verdict = check_stability(inst, M(("a1", "p2"), ("a3", "p3")))
    d = verdict.to_json_dict()
    assert d["level"] == "cutoff"
    for w in d["witnesses"]:
        assert set(w) == {"applicant", "project", "reason"}


# -- classification: oracle cross-checks ---------------------------------

def test_cutoff_level_equals_minimal_vector_oracle_on_gadgets():
    for name in GADGET_NAMES:
        inst = gadget(name)
        feas = SipFeasibility(inst)
        lib = {m.pairs for m in enumerate_matchings(inst)
               if check_stability(inst, m, feas).at_least("cutoff")}
        assert lib == minimal_vector_induced(inst, feas), name


def test_strong_and_weak_levels_equal_direct_predicates_on_gadgets():
    for name in GADGET_NAMES:
        inst = gadget(name)
        feas = SipFeasibility(inst)
        for m in enumerate_matchings(inst):
            verdict = check_stability(inst, m, feas)
            assert verdict.at_least("weak") == weakly_stable_direct(inst, m, feas)
            assert (verdict.level == "strong") == strongly_stable_direct(inst, m, feas)


def test_nesting_on_random_instances():
    # strong implies cutoff implies weak implies fair, with the independent
    # predicates agreeing at the weak and strong ends
    for inst in SMALL_SWEEP:
        feas = SipFeasibility(inst)
        for m in enumerate_matchings(inst):
            verdict = check_stability(inst, m, feas)
            if verdict.level == "strong":
                assert verdict.at_least("cutoff")
            if verdict.at_least("cutoff"):
                assert verdict.at_least("weak")
            if verdict.at_least("weak"):
                assert is_fair(inst, m)[0] and matching_feasible(inst, m, feas)
            assert verdict.at_least("weak") == weakly_stable_direct(inst, m, feas)
            assert (verdict.level == "strong") == strongly_stable_direct(inst, m, feas)


def test_cutoff_level_equals_minimal_vector_oracle_on_random_instances():
    for seed in range(12):
        inst = random_instance(seed, max_applicants=5, max_projects=3,
                               max_supervisors=2, density="7/10")
        feas = SipFeasibility(inst)
        lib = {m.pairs for m in enumerate_matchings(inst)
               if check_stability(inst, m, feas).at_least("cutoff")}
        assert lib == minimal_vector_induced(inst, feas), seed


def test_weak_stability_zero_cutoff_characterization():
    # a fair feasible matching is weakly stable exactly when re-inducing
    # with cutoffs dropped to 0 at every unconstrained project changes
    # nothing
    for name in GADGET_NAMES:
        inst = gadget(name)
        feas = SipFeasibility(inst)
        for m in enumerate_matchings(inst):
            if not is_fair(inst, m)[0]:
                continue
            d = dict(cutoffs_for(inst, m).cutoffs)
            for p in inst.projects:
                if is_unconstrained(inst, m, p, feas):
                    d[p] = 0
            unchanged = induce(inst, CutoffVector(d)) == m
            assert unchanged == check_stability(inst, m, feas).at_least("weak")


# -- Pareto domination ----------------------------------------------------

def test_pareto_dominates():
    inst = gadget("thm7_item3")
    better = M(("a1", "p2"), ("a2", "p1"))
    worse = M(("a1", "p1"), ("a2", "p2"))
    assert pareto_dominates(inst, better, worse)
    assert not pareto_dominates(inst, worse, better)
    assert not pareto_dominates(inst, better, better)


def test_weakly_stable_dominated_by_some_cutoff_stable():
    # every weakly stable matching is Pareto-dominated by (or equal to) a
    # cutoff stable one
    for name in GADGET_NAMES:
        inst = gadget(name)
        feas = SipFeasibility(inst)
        table = [(m, check_stability(inst, m, feas)) for m in enumerate_matchings(inst)]
        cutoff_ms = [m for m, v in table if v.at_least("cutoff")]
        for m, v in table:
            if v.at_least("weak") and not v.at_least("cutoff"):
                assert any(pareto_dominates(inst, c, m) for c in cutoff_ms), (name, m)


# -- the count-arithmetic checker against a rebuild-every-probe reference --

def reference_verdict(instance, matching, feas):
    """check_stability's classification, with every augment or swap probe
    answered by the reference augment_feasible / swap_feasible, which build
    the edited matching and re-validate it."""
    if not matching_feasible(instance, matching, feas):
        return {"level": "infeasible", "witnesses": []}
    fair, envy = is_fair(instance, matching)
    if not fair:
        return {"level": "unfair", "witnesses": [
            {"applicant": a, "project": p, "reason": "justified-envy"} for a, p in envy]}

    def held(a):
        return next((q for b, q in matching.pairs if b == a), None)

    def at(p):
        return [b for b, q in matching.pairs if q == p]

    def outranked_by_all(a, p):
        return all(instance.project_prefers(p, b, a) for b in at(p))

    def tolerated_weak(a, p):
        return outranked_by_all(a, p) and not augment_feasible(instance, matching, a, p, feas)

    def tolerated_cutoff(a, p):
        if len(at(p)) >= instance.capacities[p]:
            return True
        if not swap_feasible(instance, matching, a, p, feas):
            return True
        return any(
            b != a and instance.project_prefers(p, b, a) and (b, p) not in matching.pairs
            and instance.prefers(b, p, held(b))
            and not swap_feasible(instance, matching, b, p, feas)
            for b in instance.project_prefs[p]
        )

    def tolerated_strong(a, p):
        return outranked_by_all(a, p) and not swap_feasible(instance, matching, a, p, feas)

    blockers = blocking_pairs(instance, matching)
    for level, reason, tolerated in (("fair", "weakly-wasteful", tolerated_weak),
                                     ("weak", "cutoff-wasteful", tolerated_cutoff),
                                     ("cutoff", "strongly-wasteful", tolerated_strong)):
        breakers = [(a, p) for a, p in blockers if not tolerated(a, p)]
        if breakers:
            return {"level": level, "witnesses": [
                {"applicant": a, "project": p, "reason": reason} for a, p in breakers]}
    return {"level": "strong", "witnesses": []}


def test_checker_equals_reference_classifier():
    instances = [gadget(name) for name in GADGET_NAMES] + SMALL_SWEEP
    levels = set()
    for inst in instances:
        fast, slow = SipFeasibility(inst), SipFeasibility(inst)
        for m in enumerate_matchings(inst):
            verdict = check_stability(inst, m, fast).to_json_dict()
            assert verdict == reference_verdict(inst, m, slow), (inst, m)
            # the same feasibility queries, so the same max-flow work
            assert fast.calls == slow.calls
            levels.add(verdict["level"])
    assert levels == set(LEVELS) - {"infeasible"}  # enumerated matchings are feasible


def test_checker_equals_reference_on_infeasible_and_unfair_matchings():
    inst = gadget("example1")
    for m in (M(("a2", "p1")), M(("a1", "p2"), ("a2", "p1")), M(("a1", "p1"), ("a1", "p2"))):
        feas = SipFeasibility(inst)
        assert check_stability(inst, m, feas).to_json_dict() == reference_verdict(inst, m, feas)
    inst = gadget("example2_unsolvable")
    m = M(("a1", "p2"))
    verdict = check_stability(inst, m).to_json_dict()
    assert verdict == reference_verdict(inst, m, SipFeasibility(inst))
    assert verdict["level"] == "unfair"


def test_matching_lookups_when_an_applicant_holds_two_projects():
    m = M(("a1", "p1"), ("a1", "p2"), ("a2", "p2"))
    # the first pair in the set's own order wins, as a scan would find it
    assert m.project_of("a1") == next(p for a, p in m.pairs if a == "a1")
    assert m.project_of("a2") == "p2"
    assert m.project_of("a3") is None
    assert m.applicants_at("p1") == frozenset({"a1"})
    assert m.applicants_at("p2") == frozenset({"a1", "a2"})
    assert m.applicants_at("p9") == frozenset()


def test_matching_equality_and_hash_ignore_cached_indexes():
    pairs = [("a1", "p1"), ("a2", "p2"), ("a3", "p1")]
    m1 = Matching(frozenset(pairs))
    m2 = Matching(frozenset(reversed(pairs)))
    m1.project_of("a1")
    m1.applicants_at("p1")
    assert m1 == m2 and hash(m1) == hash(m2)
    assert len({m1, m2}) == 1
    assert m1 != M(*pairs[:2])
