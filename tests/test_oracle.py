"""Brute-force oracles and the SMTI hardness-gadget reductions."""

import pytest

from conftest import M, pair_sets, random_smti
from test_acceptance import TWO_TIE_CASES
from test_stability import SMALL_SWEEP

from cutoffmatch import flow, oracle
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
from cutoffmatch.model import GADGET_NAMES, gadget, generate_random
from cutoffmatch.stability import check_stability, is_fair


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


def test_guard_raises_when_the_fair_walk_is_called():
    inst = generate_random(0, DEFAULT_GUARD + 1, 3, 2)
    with pytest.raises(GuardExceeded):
        enumerate_matchings(inst, fair_only=True)  # never iterated
    with pytest.raises(GuardExceeded):
        exists_strongly_stable(inst)
    with pytest.raises(GuardExceeded):
        max_cutoff_stable_bruteforce(inst)


# -- the fair walk --------------------------------------------------------

C08_REDUCED = [reduce_smti_strong(random_smti(seed, max_men=3, max_ties=1, balanced=True))
               for seed in range(50)]
C09_REDUCED = [reduce_smti_maxsize(smti)[0]
               for smti in [random_smti(seed, max_men=3, max_ties=3) for seed in range(50)]
               + TWO_TIE_CASES]
# the two c08 reductions of TWO_TIE_CASES (11 and 12 applicants, 203,004
# matchings) are left out: filtering them through is_fair takes seconds
WALK_CASES = [gadget(name) for name in GADGET_NAMES] + SMALL_SWEEP + C08_REDUCED + C09_REDUCED


def test_fair_walk_equals_filtered_enumeration():
    fair_total = total = 0
    for i, inst in enumerate(WALK_CASES):
        guard = len(inst.applicants)
        every = list(enumerate_matchings(inst, guard))
        fair = list(enumerate_matchings(inst, guard, fair_only=True))
        assert fair == [m for m in every if is_fair(inst, m)[0]], i
        fair_total += len(fair)
        total += len(every)
    assert 0 < fair_total < total // 10  # the walk prunes, and keeps something


def test_searches_equal_answers_from_classify_all():
    for i, inst in enumerate(WALK_CASES):
        guard = len(inst.applicants)
        table = classify_all(inst, guard)
        cutoff = [m for m, verdict in table.items() if verdict.at_least("cutoff")]
        best = max((len(m) for m in cutoff), default=0)
        assert exists_strongly_stable(inst, guard) == any(
            verdict.level == "strong" for verdict in table.values()), i
        assert max_cutoff_stable_bruteforce(inst, guard) == (
            best, [m for m in cutoff if len(m) == best]), i


def test_searches_check_only_fair_matchings(monkeypatch):
    levels = []

    def recording_check(instance, matching, feas=None):
        verdict = check_stability(instance, matching, feas)
        levels.append(verdict.level)
        return verdict

    monkeypatch.setattr(oracle, "check_stability", recording_check)
    for inst in C08_REDUCED[:10] + C09_REDUCED[:10] + SMALL_SWEEP:
        exists_strongly_stable(inst, len(inst.applicants))
        max_cutoff_stable_bruteforce(inst, len(inst.applicants))
    assert levels and "unfair" not in levels and "infeasible" not in levels


def test_each_count_vector_is_max_flowed_once_per_call(monkeypatch):
    solved = []
    inner = flow.max_flow

    def recording_max_flow(graph):
        solved.append(tuple(graph.scaled))
        return inner(graph)

    monkeypatch.setattr(flow, "max_flow", recording_max_flow)
    cases = [gadget(name) for name in GADGET_NAMES] + SMALL_SWEEP
    for inst in cases + C08_REDUCED[:10] + C09_REDUCED[:10]:
        for search in (max_cutoff_stable_bruteforce, exists_strongly_stable, classify_all):
            solved.clear()
            search(inst, len(inst.applicants))
            assert len(solved) == len(set(solved)), (search.__name__, inst.applicants)


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
