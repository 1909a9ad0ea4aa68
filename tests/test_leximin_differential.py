"""The parametric max-flow leximin loop against the LP loop it replaced
(`leximin_reference`).  The leximin allocation is unique, so both must
return the same allocation, ratios, rounds, pinning rounds and pinned
values; only `lp_solves` differs, and the max-flow loop must solve no LP.
Every result must also pass the LP-based `verify_leximin`.  Where lenient
targets cannot fund a matching, both loops must refuse."""

import random
from fractions import Fraction

import leximin_reference
import pytest
from conftest import random_instance, random_matching

from cutoffmatch import egalitarian, engine
from cutoffmatch.egalitarian import TargetProfile, default_targets, verify_leximin
from cutoffmatch.model import GADGET_NAMES, gadget, generate_random
from cutoffmatch.oracle import enumerate_matchings
from cutoffmatch.stability import matching_feasible


def _no_lp(program):
    raise AssertionError("the allocation loop solved an LP")


@pytest.fixture
def same_as_reference(monkeypatch):
    """Compare both loops on one input; returns the reference's result."""

    def compare(inst, matching, targets=None, strict=True):
        want = leximin_reference.egalitarian_allocation(inst, matching, targets, strict)
        with monkeypatch.context() as patch:
            patch.setattr(egalitarian, "solve_lp", _no_lp)
            got = egalitarian.egalitarian_allocation(inst, matching, targets, strict)
        assert (got.allocation, got.ratios, got.rounds, got.fixed_round, got.fixed_value) == (
            want.allocation, want.ratios, want.rounds, want.fixed_round, want.fixed_value)
        assert got.lp_solves == 0
        assert verify_leximin(inst, matching, targets or default_targets(inst, matching),
                              got.allocation)
        return want

    return compare


def test_gadgets_every_matching(same_as_reference):
    for name in GADGET_NAMES:
        inst = gadget(name)
        for m in enumerate_matchings(inst):
            same_as_reference(inst, m)


def test_random_feasible_matchings(same_as_reference):
    """The acceptance sweep's shape and matchings, seeds 0-199."""
    compared = 0
    for seed in range(200):
        inst = random_instance(seed, max_applicants=6, max_projects=4, max_supervisors=3)
        m = random_matching(inst, random.Random(seed + 500))
        if matching_feasible(inst, m):
            same_as_reference(inst, m)
            compared += 1
    assert compared > 100


def test_cohort_engine_matchings(same_as_reference):
    """The allocation benchmark's shape, with the engine's matchings; one
    allocation here takes several rounds at distinct levels."""
    rounds = []
    for seed in range(60):
        inst = generate_random(seed, 12, 5, 3, Fraction(3, 10), (0, 10))
        rounds.append(same_as_reference(inst, engine.solve(inst)[0]).rounds)
    assert max(rounds) >= 5


def _random_targets(inst, rng):
    """Positive targets with assorted denominators on a random subset of
    the supervised pairs: the profile can leave pairs out."""
    return TargetProfile({
        (s, p): Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 5)))
        for s in inst.supervisors for p in inst.supervised[s]
        if rng.random() < 0.75
    })


def test_random_lenient_targets(same_as_reference):
    funded = partial = refused = 0
    for seed in range(150):
        inst = random_instance(seed, max_applicants=6, max_projects=4, max_supervisors=3)
        rng = random.Random(seed + 900)
        m = random_matching(inst, rng)
        if not matching_feasible(inst, m):
            continue
        targets = _random_targets(inst, rng)
        try:
            leximin_reference.egalitarian_allocation(inst, m, targets, strict=False)
        except RuntimeError:
            with pytest.raises(ValueError, match="target pairs cannot fund the matching"):
                egalitarian.egalitarian_allocation(inst, m, targets, strict=False)
            refused += 1
            continue
        same_as_reference(inst, m, targets, strict=False)
        funded += 1
        partial += len(targets.targets) < sum(map(len, inst.supervised.values()))
    assert funded > 40 and partial > 20 and refused > 20
