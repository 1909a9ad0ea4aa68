"""Acceptance suite: one test per release criterion, exact expectations.

Each test is self-contained and cross-checks a component against an
independent oracle (brute-force enumeration, grid search, or a worked
fixture with hand-computed values)."""

import itertools
import random
import time
from fractions import Fraction

from conftest import M, pair_sets, random_instance, random_matching, random_smti

from cutoffmatch.egalitarian import default_targets, egalitarian_allocation, verify_leximin
from cutoffmatch.engine import solve
from cutoffmatch.flow import SipFeasibility, check_feasibility
from cutoffmatch.milp import solve_max_cutoff_stable
from cutoffmatch.model import GADGET_NAMES, gadget, make_instance, validate_instance
from cutoffmatch.oracle import (
    SmtiInstance,
    classify_all,
    enumerate_matchings,
    exists_strongly_stable,
    max_cutoff_stable_bruteforce,
    reduce_smti_maxsize,
    reduce_smti_strong,
    smti_weakly_stable_bruteforce,
    stable_sets,
)
from cutoffmatch.stability import CutoffVector, Matching, check_stability, induce, matching_feasible


def test_c01_example1_exactly_three_feasible_matchings():
    start = time.perf_counter()
    inst = gadget("example1")
    assert pair_sets(enumerate_matchings(inst)) == [
        [], [("a1", "p2")], [("a2", "p2")],
    ]
    assert check_feasibility(inst, M(("a2", "p1")))[0] is False
    assert time.perf_counter() - start < 1.0


def test_c02_example2_no_strong_two_cutoff_same_weak():
    inst = gadget("example2_unsolvable")
    sets = stable_sets(inst)
    expected = [[("a1", "p1")], [("a2", "p2")]]
    assert pair_sets(sets["strong"]) == []
    assert pair_sets(sets["cutoff"]) == expected
    assert pair_sets(sets["weak"]) == expected


def test_c03_example3_all_levels_coincide_distinct_applicant_sets():
    inst = gadget("example3_cycle")
    sets = stable_sets(inst)
    m1 = M(("a1", "p1"), ("a2", "p2"), ("a4", "p4"))
    m2 = M(("a2", "p2"), ("a3", "p3"), ("a4", "p4"))
    expected = pair_sets([m1, m2])
    for level in ("weak", "cutoff", "strong"):
        assert pair_sets(sets[level]) == expected
    # the two stable matchings serve different applicants
    assert {a for a, _ in m1.pairs} != {a for a, _ in m2.pairs}


def test_c04_example4_separates_the_stability_levels():
    inst = gadget("example4_distinct")
    named = {
        M(("a1", "p1"), ("a2", "p2")): "strong",
        M(("a1", "p2"), ("a2", "p1")): "strong",
        M(("a1", "p2"), ("a3", "p3")): "cutoff",
        M(("a1", "p3"), ("a2", "p1")): "weak",
    }
    for m, level in named.items():
        assert check_stability(inst, m).level == level, m
    # every other size-2 valid matching is unfair or infeasible
    pairs = inst.acceptable_pairs()
    for combo in itertools.combinations(pairs, 2):
        m = Matching(frozenset(combo))
        if not m.is_valid(inst) or m in named:
            continue
        assert check_stability(inst, m).level in ("infeasible", "unfair"), m


def test_c05_engine_reproduces_the_worked_traces():
    # truthful run, then the profitable misreport by a2
    matching, _, _ = solve(gadget("thm7_item1"), project_order=("p1", "p2"))
    assert matching == M(("a1", "p1"))
    lying = make_instance(
        applicants=["a1", "a2"],
        applicant_prefs={"a1": ["p2", "p1"], "a2": ["p2", "p1"]},
        project_prefs={"p1": ["a2", "a1"], "p2": ["a2", "a1"]},
        capacities={"p1": 1, "p2": 1},
        supervised={"s": ["p1", "p2"]},
        budgets={"s": 1},
    )
    assert solve(lying, project_order=("p1", "p2"))[0] == M(("a2", "p2"))

    # order dependence
    inst3 = gadget("thm7_item3")
    assert solve(inst3, project_order=("p1", "p2", "p3"))[0] == M(("a1", "p2"), ("a2", "p1"))
    assert solve(inst3, project_order=("p1", "p3", "p2"))[0] == M(("a1", "p1"), ("a3", "p3"))

    # a cutoff stable matching the engine can never emit
    inst4 = gadget("thm7_item4")
    unreachable = M(("a1", "p1"), ("a2", "p2"))
    for order in itertools.permutations(inst4.projects):
        assert solve(inst4, project_order=order)[0] != unreachable
    assert check_stability(inst4, unreachable).at_least("cutoff")


def test_c06_engine_property_sweep_200_instances():
    start = time.perf_counter()
    for seed in range(200):
        inst = random_instance(seed, max_applicants=8, max_projects=8,
                               max_supervisors=4)
        feas = SipFeasibility(inst)
        matching, cutoffs, trace = solve(inst)
        verdict = check_stability(inst, matching, feas)
        assert verdict.at_least("cutoff"), seed  # implies fair and feasible
        assert induce(inst, cutoffs) == matching
        for p in inst.projects:  # final cutoffs are minimal
            if cutoffs[p] > 0:
                dec = induce(inst, cutoffs.decremented(p))
                assert not matching_feasible(inst, dec, feas), (seed, p)
        bound = (len(inst.applicants) + 1) * len(inst.projects) ** 2
        assert trace.feasibility_calls <= bound, seed
    assert time.perf_counter() - start < 60.0


def test_c07_milp_equals_bruteforce_on_gadgets_and_100_instances():
    start = time.perf_counter()
    for name in GADGET_NAMES:
        inst = gadget(name)
        matching, _, _, _ = solve_max_cutoff_stable(inst)
        assert len(matching) == max_cutoff_stable_bruteforce(inst)[0], name
    for seed in range(100):
        inst = random_instance(seed, max_applicants=7, max_projects=3,
                               max_supervisors=2, density="3/5")
        matching, _, _, _ = solve_max_cutoff_stable(inst)
        assert len(matching) == max_cutoff_stable_bruteforce(inst)[0], seed
    assert time.perf_counter() - start < 120.0


TWO_TIE_CASES = [
    SmtiInstance(
        men=("m1", "m2", "m3"),
        men_prefs={"m1": ("w1", "w2"), "m2": ("w1", "w3"), "m3": ("w2", "w3")},
        women_strict={"w3": ("m2", "m3")},
        women_tie={"w1": ("m1", "m2"), "w2": ("m1", "m3")},
    ),
    SmtiInstance(
        men=("m1", "m2"),
        men_prefs={"m1": ("w1", "w2"), "m2": ("w2", "w1")},
        women_strict={},
        women_tie={"w1": ("m1", "m2"), "w2": ("m1", "m2")},
    ),
]


def test_c08_strong_stability_reduction_equivalence():
    cases = [random_smti(seed, max_men=3, max_ties=1, balanced=True) for seed in range(50)]
    cases += TWO_TIE_CASES
    tie_cases = 0
    for i, smti in enumerate(cases):
        _, complete = smti_weakly_stable_bruteforce(smti)
        reduced = reduce_smti_strong(smti)
        has_strong = exists_strongly_stable(reduced, guard=len(reduced.applicants))
        assert has_strong == complete, i
        tie_cases += bool(smti.women_tie)
    assert tie_cases >= 10  # the sample genuinely exercises the tie gadget


def test_c09_max_size_reduction_equivalence():
    cases = [random_smti(seed, max_men=3, max_ties=3) for seed in range(50)]
    cases += TWO_TIE_CASES
    for i, smti in enumerate(cases):
        size, _ = smti_weakly_stable_bruteforce(smti)
        reduced, offset = reduce_smti_maxsize(smti)
        got, _ = max_cutoff_stable_bruteforce(reduced, guard=len(reduced.applicants))
        assert got + offset == size, i


def test_c10_egalitarian_fixture_beats_grid_search():
    inst = make_instance(
        applicants=["a1"],
        applicant_prefs={"a1": ["p"]},
        project_prefs={"p": ["a1"]},
        capacities={"p": 1},
        supervised={"s1": ["p"], "s2": ["p"]},
        budgets={"s1": "1/4", "s2": "2"},
    )
    m = M(("a1", "p"))
    targets = default_targets(inst, m)
    res = egalitarian_allocation(inst, m, targets)
    assert res.allocation == {("s1", "p"): Fraction(1, 4), ("s2", "p"): Fraction(3, 4)}
    assert res.ratios == [Fraction(3, 2), Fraction(1, 2)]
    assert verify_leximin(inst, m, targets, res.allocation)

    # grid search at 1/1000 steps: no feasible split has a lexicographically
    # smaller sorted ratio vector
    best = sorted(res.ratios, reverse=True)
    step = Fraction(1, 1000)
    x1 = Fraction(0)
    while x1 <= Fraction(1, 4):
        x2 = 1 - x1
        if x2 <= 2:
            ratios = sorted((x1 / Fraction(1, 2), x2 / Fraction(1, 2)), reverse=True)
            assert ratios >= best, x1
        x1 += step


def test_c11_allocation_round_and_lp_solve_accounting():
    def check(instance, matching):
        targets = default_targets(instance, matching)
        res = egalitarian_allocation(instance, matching, targets)
        n = len(targets.targets)
        assert 0 < res.rounds <= max(n, 1) or n == 0
        assert res.lp_solves <= n * n + n
        # each round pins at least one pair, so rounds grow one tight set
        # entry at a time
        by_round = sorted(res.fixed_round.values())
        assert by_round == sorted(set(by_round)) or len(set(by_round)) < len(by_round)
        assert all(1 <= r <= res.rounds for r in by_round)

    for name in GADGET_NAMES:
        inst = gadget(name)
        for m in enumerate_matchings(inst):
            check(inst, m)
    for seed in range(30):
        inst = random_instance(seed, max_applicants=6, max_projects=4,
                               max_supervisors=3)
        rng = random.Random(seed + 500)
        m = random_matching(inst, rng)
        if matching_feasible(inst, m):
            check(inst, m)


def test_c12_heredity_and_anonymity_500_triples():
    done = 0
    seed = 0
    while done < 500:
        inst = random_instance(seed, max_applicants=7, max_projects=5,
                               max_supervisors=3)
        rng = random.Random(seed * 7 + 3)
        m = random_matching(inst, rng)
        counts = m.counts(inst)
        feasible = SipFeasibility(inst)(counts)
        # anonymity: the matching-level answer only depends on counts
        assert check_feasibility(inst, m)[0] == feasible
        if feasible:
            # heredity: dropping pairs can never break feasibility
            sub = Matching(frozenset(
                pair for pair in m.pairs if rng.random() < 0.6))
            assert check_feasibility(inst, sub)[0], seed
        done += 1
        seed += 1


def test_c13_integer_budgets_yield_integer_allocations():
    checked = 0
    for seed in range(200):
        inst = random_instance(seed, max_applicants=6, max_projects=5,
                               max_supervisors=3)
        raw = inst.to_json_dict()
        for rec in raw["supervisors"]:  # floor the budgets to integers
            rec["budget"] = str(int(Fraction(rec["budget"])))
        inst = validate_instance(raw)
        rng = random.Random(seed + 41)
        m = random_matching(inst, rng)
        ok, alloc = check_feasibility(inst, m)
        if ok:
            assert all(x.denominator == 1 for x in alloc.values()), seed
            checked += 1
    assert checked >= 50
