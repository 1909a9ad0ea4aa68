"""Egalitarian funding split: iterated minimax rounds, the leximin
verifier, target profiles, and accounting bounds."""

import random
from fractions import Fraction

import pytest

from conftest import M, random_instance, random_matching

from cutoffmatch.egalitarian import (
    AllocationResult,
    TargetProfile,
    _feasibility_lp,
    default_targets,
    egalitarian_allocation,
    verify_leximin,
)
from cutoffmatch.flow import verify_allocation
from cutoffmatch.lp import OPTIMAL, solve_lp
from cutoffmatch.model import GADGET_NAMES, gadget, make_instance
from cutoffmatch.oracle import enumerate_matchings
from cutoffmatch.stability import matching_feasible


def _fixture():
    inst = make_instance(
        applicants=["a1"],
        applicant_prefs={"a1": ["p"]},
        project_prefs={"p": ["a1"]},
        capacities={"p": 1},
        supervised={"s1": ["p"], "s2": ["p"]},
        budgets={"s1": "1/4", "s2": "2"},
    )
    return inst, M(("a1", "p"))


def test_fixture_allocation_exact():
    inst, m = _fixture()
    res = egalitarian_allocation(inst, m)
    assert res.allocation == {("s1", "p"): Fraction(1, 4), ("s2", "p"): Fraction(3, 4)}
    assert res.ratios == [Fraction(3, 2), Fraction(1, 2)]
    assert res.rounds == 2
    assert res.lp_solves == 0
    assert res.fixed_value[("s2", "p")] == Fraction(3, 2)
    assert res.fixed_value[("s1", "p")] == Fraction(1, 2)
    assert res.fixed_round[("s2", "p")] == 1
    assert res.fixed_round[("s1", "p")] == 2


def test_fixture_passes_leximin_verifier():
    inst, m = _fixture()
    targets = default_targets(inst, m)
    res = egalitarian_allocation(inst, m, targets)
    assert verify_leximin(inst, m, targets, res.allocation)
    # pushing weight toward the big supervisor worsens the max ratio
    skewed = {("s1", "p"): Fraction(0), ("s2", "p"): Fraction(1)}
    assert not verify_leximin(inst, m, targets, skewed)


def test_symmetric_supervisors_split_evenly():
    inst = make_instance(
        applicants=["a1", "a2"],
        applicant_prefs={"a1": ["p"], "a2": ["p"]},
        project_prefs={"p": ["a1", "a2"]},
        capacities={"p": 2},
        supervised={"s1": ["p"], "s2": ["p"]},
        budgets={"s1": 2, "s2": 2},
    )
    m = M(("a1", "p"), ("a2", "p"))
    res = egalitarian_allocation(inst, m)
    assert res.allocation == {("s1", "p"): Fraction(1), ("s2", "p"): Fraction(1)}
    assert res.ratios == [Fraction(2), Fraction(2)]


def test_default_targets_equal_split():
    inst, m = _fixture()
    t = default_targets(inst, m).targets
    assert t == {("s1", "p"): Fraction(1, 2), ("s2", "p"): Fraction(1, 2)}


def test_default_targets_reject_unsupervised_matched_project():
    inst = make_instance(
        applicants=["a1"],
        applicant_prefs={"a1": ["p"]},
        project_prefs={"p": ["a1"]},
        capacities={"p": 1},
        supervised={"s1": []},
        budgets={"s1": 1},
    )
    with pytest.raises(ValueError):
        default_targets(inst, M(("a1", "p")))


def test_lenient_targets_need_not_sum_to_one():
    inst = make_instance(
        applicants=["a1", "a2"],
        applicant_prefs={"a1": ["p"], "a2": ["p"]},
        project_prefs={"p": ["a1", "a2"]},
        capacities={"p": 2},
        supervised={"s1": ["p"], "s2": ["p"]},
        budgets={"s1": 2, "s2": 2},
    )
    m = M(("a1", "p"), ("a2", "p"))
    t = {("s1", "p"): Fraction(1), ("s2", "p"): Fraction(1)}
    # such targets do not sum to 1, so strict validation must refuse them
    with pytest.raises(ValueError):
        TargetProfile(t).validate(inst, strict=True)
    TargetProfile(t).validate(inst, strict=False)
    res = egalitarian_allocation(inst, m, TargetProfile(t), strict=False)
    assert sum(res.allocation.values()) == 2


def test_target_validation():
    inst, m = _fixture()
    with pytest.raises(ValueError):
        TargetProfile({("s1", "p"): Fraction(0),
                       ("s2", "p"): Fraction(1)}).validate(inst)
    with pytest.raises(ValueError):
        TargetProfile({("s1", "p"): Fraction(1, 3),
                       ("s2", "p"): Fraction(1, 3)}).validate(inst)


def test_infeasible_matching_rejected():
    inst = gadget("example1")
    with pytest.raises(ValueError):
        egalitarian_allocation(inst, M(("a2", "p1")))


def test_unmatched_only_instance_trivial():
    inst, _ = _fixture()
    res = egalitarian_allocation(inst, M())
    assert all(x == 0 for x in res.allocation.values())


def test_gadget_allocations_verified_and_within_bounds():
    for name in GADGET_NAMES:
        inst = gadget(name)
        for m in enumerate_matchings(inst):
            targets = default_targets(inst, m)
            res = egalitarian_allocation(inst, m, targets)
            n_pairs = len(targets.targets)
            assert res.rounds <= n_pairs
            assert res.lp_solves <= n_pairs * n_pairs + n_pairs
            assert res.lp_solves == 0
            assert verify_allocation(inst, m.counts(inst), res.allocation)
            assert verify_leximin(inst, m, targets, res.allocation)
            assert res.ratios == sorted(res.ratios, reverse=True)


def _polytope_candidates(inst, m, targets, optimum, rng, objectives=3):
    """Vertices of the funding polytope under random objectives, plus the
    midpoint of each vertex with the optimum.  Besides the whole polytope,
    each face that holds the optimum's ratios above one of its levels v and
    caps the other ratios at v is sampled, so some candidates agree with
    the optimum down to v and differ only below it."""
    pairs = sorted(targets.targets)
    ratio = {sp: optimum[sp] / targets.targets[sp] for sp in pairs}
    for cap in [None, *sorted(set(ratio.values()), reverse=True)]:
        for _ in range(objectives):
            lp, names = _feasibility_lp(inst, m.counts(inst), pairs)
            if cap is not None:
                for sp in pairs:
                    row = {names[sp]: 1 / targets.targets[sp]}
                    if ratio[sp] > cap:
                        lp.add_constraint(row, "=", ratio[sp])
                    else:
                        lp.add_constraint(row, "<=", cap)
            lp.objective = {names[sp]: Fraction(rng.randint(-3, 3)) for sp in pairs}
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            vertex = {sp: sol[names[sp]] for sp in pairs}
            yield vertex
            yield {sp: (vertex[sp] + optimum[sp]) / 2 for sp in pairs}


def test_verify_leximin_accepts_exactly_the_allocation():
    """The leximin optimum is unique, so the verifier accepts a feasible
    allocation exactly when it equals the one the loop computes."""
    rng = random.Random(2024)
    cases = [(gadget(name), m) for name in GADGET_NAMES
             for m in enumerate_matchings(gadget(name))]
    for seed in range(100):
        inst = random_instance(seed, max_applicants=6, max_projects=4,
                               max_supervisors=3)
        m = random_matching(inst, random.Random(seed + 500))
        if matching_feasible(inst, m):
            cases.append((inst, m))
    checked = rejected = 0
    for inst, m in cases:
        targets = default_targets(inst, m)
        optimum = egalitarian_allocation(inst, m, targets).allocation
        candidates = {tuple(z.values()): z
                      for z in _polytope_candidates(inst, m, targets, optimum, rng)}
        for z in candidates.values():
            verdict = verify_leximin(inst, m, targets, z)
            assert verdict == (z == optimum), (sorted(inst.projects), z)
            checked += 1
            rejected += not verdict
    assert checked > 200 and rejected > 100  # the sweep exercises both verdicts


def test_result_json_shape():
    inst, m = _fixture()
    targets = default_targets(inst, m)
    res = egalitarian_allocation(inst, m, targets)
    d = res.to_json_dict(targets)
    assert [e["supervisor"] for e in d["pairs"]] == ["s1", "s2"]
    assert d["pairs"][0]["x"] == "1/4"
    assert d["pairs"][0]["ratio"] == "1/2"
    assert d["pairs"][1]["ratio"] == "3/2"
