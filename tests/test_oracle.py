"""Brute-force oracles and the SMTI hardness-gadget reductions."""

import pytest

from conftest import M, pair_sets, random_smti

from cutoffmatch.oracle import (
    DEFAULT_GUARD,
    GuardExceeded,
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
from cutoffmatch.model import gadget, generate_random
from cutoffmatch.stability import check_stability


def test_enumeration_example2():
    inst = gadget("example2_unsolvable")
    ms = list(enumerate_matchings(inst))
    assert len(ms) == len(set(ms)) == 5
    assert pair_sets(ms) == [
        [],
        [("a1", "p1")],
        [("a1", "p2")],
        [("a2", "p1")],
        [("a2", "p2")],
    ]


def test_enumeration_example1_feasibility_triple():
    inst = gadget("example1")
    assert pair_sets(enumerate_matchings(inst)) == [
        [], [("a1", "p2")], [("a2", "p2")],
    ]


def test_classify_all_example2():
    inst = gadget("example2_unsolvable")
    levels = {tuple(sorted(m.pairs)): v.level for m, v in classify_all(inst).items()}
    assert levels == {
        (): "fair",
        (("a1", "p1"),): "cutoff",
        (("a1", "p2"),): "unfair",
        (("a2", "p1"),): "unfair",
        (("a2", "p2"),): "cutoff",
    }


def test_stable_sets_example3():
    inst = gadget("example3_cycle")
    sets = stable_sets(inst)
    m1 = [("a1", "p1"), ("a2", "p2"), ("a4", "p4")]
    m2 = [("a2", "p2"), ("a3", "p3"), ("a4", "p4")]
    for level in ("weak", "cutoff", "strong"):
        assert pair_sets(sets[level]) == [m1, m2]


def test_exists_strongly_stable():
    assert exists_strongly_stable(gadget("example1"))
    assert not exists_strongly_stable(gadget("example2_unsolvable"))


def test_max_cutoff_stable_bruteforce_example4():
    size, witnesses = max_cutoff_stable_bruteforce(gadget("example4_distinct"))
    assert size == 2
    assert pair_sets(witnesses) == [
        [("a1", "p1"), ("a2", "p2")],
        [("a1", "p2"), ("a2", "p1")],
        [("a1", "p2"), ("a3", "p3")],
    ]


# -- size guard -----------------------------------------------------------

def test_guard_refuses_large_instances():
    inst = generate_random(0, DEFAULT_GUARD + 1, 3, 2)
    with pytest.raises(GuardExceeded):
        list(enumerate_matchings(inst))
    # explicit override wins
    assert next(enumerate_matchings(inst, guard=DEFAULT_GUARD + 1), None) is not None


def test_guard_env_override(monkeypatch):
    inst = generate_random(0, DEFAULT_GUARD + 1, 3, 2)
    monkeypatch.setenv("CUTOFFMATCH_GUARD", str(DEFAULT_GUARD + 1))
    assert next(enumerate_matchings(inst), None) is not None
    monkeypatch.setenv("CUTOFFMATCH_GUARD", "2")
    with pytest.raises(GuardExceeded):
        list(enumerate_matchings(inst))


# -- restricted SMTI ------------------------------------------------------

def test_smti_validation():
    with pytest.raises(ValueError):
        SmtiInstance(men=("m1",), men_prefs={"m1": ("w1",)},
                     women_strict={}, women_tie={"w1": ("m1", "m1")})
    with pytest.raises(ValueError):
        SmtiInstance(men=("m1",), men_prefs={"m1": ("w1",)},
                     women_strict={"w1": ()}, women_tie={})


def test_smti_bruteforce_tiny_tie():
    # two men fight over one tie woman: no complete matching can exist
    smti = SmtiInstance(
        men=("m1", "m2"),
        men_prefs={"m1": ("w1",), "m2": ("w1",)},
        women_strict={},
        women_tie={"w1": ("m1", "m2")},
    )
    size, complete = smti_weakly_stable_bruteforce(smti)
    assert (size, complete) == (1, False)


def test_smti_bruteforce_strict_complete():
    smti = SmtiInstance(
        men=("m1", "m2"),
        men_prefs={"m1": ("w1", "w2"), "m2": ("w1", "w2")},
        women_strict={"w1": ("m1", "m2"), "w2": ("m1", "m2")},
        women_tie={},
    )
    size, complete = smti_weakly_stable_bruteforce(smti)
    assert (size, complete) == (2, True)


def test_smti_unstable_assignments_are_rejected():
    smti = SmtiInstance(
        men=("m1", "m2"),
        men_prefs={"m1": ("w1", "w2"), "m2": ("w1",)},
        women_strict={"w1": ("m2", "m1"), "w2": ("m1",)},
        women_tie={},
    )
    # m2-w1 is forced; m1 settles for w2
    size, complete = smti_weakly_stable_bruteforce(smti)
    assert (size, complete) == (2, True)


# -- reductions -----------------------------------------------------------

def test_strong_reduction_shape_one_tie():
    smti = SmtiInstance(
        men=("m1", "m2"),
        men_prefs={"m1": ("w1",), "m2": ("w1",)},
        women_strict={},
        women_tie={"w1": ("m1", "m2")},
    )
    red = reduce_smti_strong(smti)
    # per man: one project; per tie woman: a four-applicant gadget; plus
    # the unsolvable pair and its tail applicant
    assert len(red.projects) == 2 + 4 + 2
    assert len(red.applicants) == 4 + 2 + 1
    # every supervisor holds a unit budget in this construction
    assert all(q == 1 for q in red.budgets.values())


def test_strong_reduction_equivalence_spot_cases():
    cases = [
        # no complete weakly stable matching (two men, one tie woman)
        SmtiInstance(men=("m1", "m2"),
                     men_prefs={"m1": ("w1",), "m2": ("w1",)},
                     women_strict={}, women_tie={"w1": ("m1", "m2")}),
        # complete, strict only
        SmtiInstance(men=("m1", "m2"),
                     men_prefs={"m1": ("w1", "w2"), "m2": ("w1",)},
                     women_strict={"w1": ("m2", "m1"), "w2": ("m1",)},
                     women_tie={}),
        # complete, with a tie actually used
        SmtiInstance(men=("m1", "m2"),
                     men_prefs={"m1": ("w1",), "m2": ("w1", "w2")},
                     women_strict={"w2": ("m2",)},
                     women_tie={"w1": ("m1", "m2")}),
    ]
    for smti in cases:
        _, complete = smti_weakly_stable_bruteforce(smti)
        red = reduce_smti_strong(smti)
        assert exists_strongly_stable(red, guard=len(red.applicants)) == complete


def test_maxsize_reduction_spot_cases():
    for seed in range(8):
        smti = random_smti(seed, max_men=3, max_ties=2)
        size, _ = smti_weakly_stable_bruteforce(smti)
        red, offset = reduce_smti_maxsize(smti)
        assert offset == 0
        got, _ = max_cutoff_stable_bruteforce(red, guard=len(red.applicants))
        assert got + offset == size, seed


def test_maxsize_reduction_witnesses_are_cutoff_stable():
    smti = SmtiInstance(
        men=("m1", "m2"),
        men_prefs={"m1": ("w1",), "m2": ("w1",)},
        women_strict={},
        women_tie={"w1": ("m1", "m2")},
    )
    red, _ = reduce_smti_maxsize(smti)
    size, witnesses = max_cutoff_stable_bruteforce(red, guard=len(red.applicants))
    assert size == 1
    for w in witnesses:
        assert check_stability(red, w).at_least("cutoff")
