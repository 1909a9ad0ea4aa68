"""The integer-row simplex against the Fraction simplex it replaced
(`lp_reference`): both must take the same pivots, so every LP must come
back field for field the same (status, assignment, objective, duals).
Programs come from a seeded random sweep, from branch and bound on the
acceptance-test shape, and from the leximin verifier."""

import random
from fractions import Fraction
from math import gcd, lcm

import lp_reference
import pytest
from conftest import M, random_instance

from cutoffmatch import egalitarian, engine, lp, milp
from cutoffmatch.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, _pivot, solve_lp
from cutoffmatch.model import GADGET_NAMES, gadget, make_instance


def rational(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3, 4, 6, 7)))


def random_program(rng):
    """A small program with mixed denominators, negative right-hand sides,
    all three senses, free and shifted or boxed variables, and sometimes an
    equality row that is a multiple of the sum of two others (redundant, so
    an artificial variable stays basic at zero after phase 1).  Returns the
    program and whether it has such a row."""
    prog = LinearProgram(maximize=bool(rng.getrandbits(1)))
    names = [f"v{i}" for i in range(rng.randint(2, 5))]
    for v in names:
        kind = rng.randrange(4)
        lower = None if kind == 0 else (Fraction(0) if kind == 1 else rational(rng, 3))
        upper = None
        if kind != 0 and rng.random() < 0.6:
            upper = (lower or 0) + abs(rational(rng, 4))
        elif kind == 0 and rng.random() < 0.3:
            upper = rational(rng, 4)
        prog.add_variable(v, lower=lower, upper=upper,
                          objective=rational(rng) if rng.random() < 0.8 else 0)
    equalities = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: rational(rng) for v in rng.sample(names, rng.randint(1, len(names)))}
        sense = rng.choice(("<=", "<=", ">=", "="))
        rhs = rational(rng, 8)
        prog.add_constraint(coeffs, sense, rhs)
        if sense == "=":
            equalities.append((coeffs, rhs))
    redundant = len(equalities) >= 2 and rng.random() < 0.7
    if redundant:
        (c1, r1), (c2, r2) = rng.sample(equalities, 2)
        k = rational(rng, 3) or Fraction(1)
        combined = {v: k * (c1.get(v, 0) + c2.get(v, 0)) for v in names}
        prog.add_constraint(combined, "=", k * (r1 + r2))
    return prog, redundant


def test_random_programs_match_the_fraction_reference():
    rng = random.Random(5)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    redundant = 0
    for i in range(800):
        prog, has_redundant_row = random_program(rng)
        got, want = solve_lp(prog), lp_reference.solve_lp(prog)
        assert got == want, i
        statuses[got.status] += 1
        redundant += has_redundant_row and got.status == OPTIMAL
    # the sweep reaches every status, and optimal programs with redundant rows
    assert min(statuses.values()) >= 50, statuses
    assert redundant >= 10


def test_empty_and_degenerate_rows_match_the_reference():
    prog = LinearProgram(maximize=True)
    prog.add_variable("x", upper=Fraction(3), objective=1)
    prog.add_variable("y", lower=None, upper=Fraction(2), objective=Fraction(1, 2))
    prog.add_constraint({}, "=", 0)
    prog.add_constraint({"x": 1, "y": 1}, "<=", 0)
    prog.add_constraint({"x": 2, "y": 2}, "=", 0)
    prog.add_constraint({"x": Fraction(1, 3), "y": Fraction(-1, 3)}, ">=", Fraction(-2, 3))
    assert solve_lp(prog) == lp_reference.solve_lp(prog)


def _tableau(rng, m, n):
    """Random rows of Fractions and the same rows as (ints, denominator)."""
    exact = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]
             for _ in range(m)]
    rows, dens = [], []
    for row in exact:
        den = lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
        dens.append(den)
    return exact, rows, dens


def test_pivot_keeps_rows_exact_and_in_lowest_terms():
    rng = random.Random(11)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        exact, rows, dens = _tableau(rng, m, n)
        cells = [(r, c) for r in range(m) for c in range(n) if exact[r][c]]
        if not cells:
            continue
        r, c = rng.choice(cells)
        # a common factor in the pivot row that the pivot must divide out
        k = rng.randint(2, 5)
        rows[r] = [x * k for x in rows[r]]
        dens[r] *= k
        _pivot(rows, dens, r, c)
        prow = [x / exact[r][c] for x in exact[r]]
        want = [prow if i == r else [x - row[c] * y for x, y in zip(row, prow)]
                for i, row in enumerate(exact)]
        for ints, den, row in zip(rows, dens, want):
            assert den > 0 and gcd(*ints, den) == 1
            assert [Fraction(x, den) for x in ints] == row


@pytest.fixture
def compare_lps(monkeypatch):
    """Route every LP that milp and egalitarian solve through both solvers."""
    seen = []

    def both(program):
        got = lp.solve_lp(program)
        assert got == lp_reference.solve_lp(program)
        seen.append(got.status)
        return got

    monkeypatch.setattr(milp, "solve_lp", both)
    monkeypatch.setattr(egalitarian, "solve_lp", both)
    return seen


def test_branch_and_bound_lps_match_the_reference(compare_lps):
    for seed in range(20):
        inst = random_instance(seed, max_applicants=7, max_projects=3,
                               max_supervisors=2, density="3/5")
        milp.solve_max_cutoff_stable(inst, verify=False)
    assert len(compare_lps) == 340  # one LP per node, as in test_milp
    assert set(compare_lps) == {OPTIMAL, INFEASIBLE}


def test_leximin_lps_match_the_reference(compare_lps):
    inst = make_instance(
        applicants=["a1"],
        applicant_prefs={"a1": ["p"]},
        project_prefs={"p": ["a1"]},
        capacities={"p": 1},
        supervised={"s1": ["p"], "s2": ["p"]},
        budgets={"s1": "1/4", "s2": "2"},
    )
    cases = [(inst, M(("a1", "p")))]
    cases += [(g, engine.solve(g)[0]) for g in map(gadget, GADGET_NAMES)]
    levels = 0
    for inst, matching in cases:
        targets = egalitarian.default_targets(inst, matching)
        result = egalitarian.egalitarian_allocation(inst, matching, targets)
        assert egalitarian.verify_leximin(inst, matching, targets, result.allocation)
        levels += len(set(result.ratios))
    # the verifier solves one LP per ratio level; the allocation solves none
    assert len(compare_lps) == levels
