"""Exact simplex solver: fixtures with known optima, status detection,
bounded/free/shifted variables, a vertex-enumeration cross-check on random
two-variable programs, agreement with the flow-based feasibility test, and
the LP text export."""

import itertools
import random
from fractions import Fraction

from conftest import random_instance, random_matching

from cutoffmatch.flow import check_feasibility
from cutoffmatch.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    check_solution,
    export_lp_text,
    solve_lp,
)


def assert_dual_certificate(lp, sol):
    """Every nonzero dual sits on a tight constraint with the documented
    sign, and the Lagrangian bound y.b + sum of reduced cost times the
    matching variable bound equals the optimum."""
    x = sol.assignment
    assert len(sol.duals) == len(lp.constraints)
    bound = Fraction(0)
    reduced = {v: lp.objective.get(v, Fraction(0)) for v in lp.variables}
    for y, (coeffs, sense, rhs) in zip(sol.duals, lp.constraints):
        if y:
            assert sum(c * x[v] for v, c in coeffs.items()) == rhs
            if sense != "=":
                # positive exactly for "<=" in a max and ">=" in a min: raising
                # either rhs can only raise the optimum
                assert (y > 0) == ((sense == "<=") == lp.maximize)
        bound += y * rhs
        for v, c in coeffs.items():
            reduced[v] -= y * c
    for v, d in reduced.items():
        if d:
            at_lower = (d > 0) != lp.maximize
            b = lp.lower[v] if at_lower else lp.upper[v]
            assert b is not None
            bound += d * b
    assert bound == sol.objective


def test_simple_maximization():
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", objective=3)
    lp.add_variable("y", objective=2)
    lp.add_constraint({"x": 1, "y": 1}, "<=", 4)
    lp.add_constraint({"x": 1, "y": 3}, "<=", 6)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.assignment == {"x": Fraction(4), "y": Fraction(0)}
    assert sol.objective == 12
    assert check_solution(lp, sol)


def test_fractional_optimum_is_exact():
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", objective=1)
    lp.add_variable("y", objective=1)
    lp.add_constraint({"x": 3, "y": 1}, "<=", 1)
    lp.add_constraint({"x": 1, "y": 3}, "<=", 1)
    sol = solve_lp(lp)
    assert sol.assignment == {"x": Fraction(1, 4), "y": Fraction(1, 4)}
    assert sol.objective == Fraction(1, 2)


def test_minimization_with_equalities():
    lp = LinearProgram()
    lp.add_variable("x", objective=2)
    lp.add_variable("y", objective=1)
    lp.add_constraint({"x": 1, "y": 1}, "=", 3)
    lp.add_constraint({"x": 1}, ">=", 1)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.assignment == {"x": Fraction(1), "y": Fraction(2)}
    assert sol.objective == 4
    assert sol.duals == [Fraction(1), Fraction(1)]
    assert_dual_certificate(lp, sol)


def test_infeasible():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_constraint({"x": 1}, "<=", 1)
    lp.add_constraint({"x": 1}, ">=", 2)
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded():
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", objective=1)
    lp.add_constraint({"x": -1}, "<=", 0)
    assert solve_lp(lp).status == UNBOUNDED


def test_free_variable():
    lp = LinearProgram()
    lp.add_variable("x", lower=None, objective=1)
    lp.add_constraint({"x": 1}, ">=", -5)
    sol = solve_lp(lp)
    assert sol.assignment["x"] == Fraction(-5)
    assert sol.duals == [Fraction(1)]
    assert_dual_certificate(lp, sol)


def test_free_variable_beside_one_named_like_its_split():
    # x is split into a positive and a negative part; a variable named "x+"
    # must still get a column of its own
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", lower=None, upper=Fraction(10), objective=1)
    lp.add_variable("x+", upper=Fraction(5), objective=-1)
    sol = solve_lp(lp)
    assert sol.assignment == {"x": Fraction(10), "x+": Fraction(0)}
    assert sol.objective == 10


def test_shifted_lower_and_upper_bounds():
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", lower=Fraction(2), upper=Fraction(7), objective=1)
    lp.add_variable("y", lower=Fraction(-1), objective=-1)
    lp.add_constraint({"x": 1, "y": 1}, "<=", 5)
    sol = solve_lp(lp)
    assert sol.assignment == {"x": Fraction(6), "y": Fraction(-1)}
    assert sol.objective == 7
    assert_dual_certificate(lp, sol)


def test_degenerate_program_terminates():
    # classic cycling-prone tableau; Bland's rule must still terminate
    lp = LinearProgram()
    lp.add_variable("x1", objective=Fraction(-3, 4))
    lp.add_variable("x2", objective=150)
    lp.add_variable("x3", objective=Fraction(-1, 50))
    lp.add_variable("x4", objective=6)
    lp.add_constraint({"x1": Fraction(1, 4), "x2": -60, "x3": Fraction(-1, 25), "x4": 9}, "<=", 0)
    lp.add_constraint({"x1": Fraction(1, 2), "x2": -90, "x3": Fraction(-1, 50), "x4": 3}, "<=", 0)
    lp.add_constraint({"x3": 1}, "<=", 1)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == Fraction(-1, 20)


def test_empty_program():
    lp = LinearProgram()
    assert solve_lp(lp).status == OPTIMAL
    lp.add_constraint({}, "<=", -1)
    assert solve_lp(lp).status == INFEASIBLE


def test_check_solution_rejects_tampering():
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", upper=Fraction(1), objective=1)
    sol = solve_lp(lp)
    assert check_solution(lp, sol)
    sol.assignment["x"] = Fraction(2)
    assert not check_solution(lp, sol)


# -- vertex-enumeration cross-check --------------------------------------

def _brute_force_2var(lp):
    """Optimal objective of a bounded 2-variable program by enumerating
    candidate vertices: intersections of constraint/bound boundaries."""
    lines = []
    for coeffs, _, rhs in lp.constraints:
        lines.append((coeffs.get("x", Fraction(0)), coeffs.get("y", Fraction(0)), rhs))
    for v, idx in (("x", 0), ("y", 1)):
        lo, hi = lp.lower[v], lp.upper[v]
        unit = [Fraction(0), Fraction(0)]
        unit[idx] = Fraction(1)
        if lo is not None:
            lines.append((unit[0], unit[1], lo))
        if hi is not None:
            lines.append((unit[0], unit[1], hi))

    def feasible(x, y):
        for coeffs, sense, rhs in lp.constraints:
            lhs = coeffs.get("x", Fraction(0)) * x + coeffs.get("y", Fraction(0)) * y
            if sense == "<=" and lhs > rhs:
                return False
            if sense == ">=" and lhs < rhs:
                return False
            if sense == "=" and lhs != rhs:
                return False
        for v, val in (("x", x), ("y", y)):
            if lp.lower[v] is not None and val < lp.lower[v]:
                return False
            if lp.upper[v] is not None and val > lp.upper[v]:
                return False
        return True

    best = None
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if not feasible(x, y):
            continue
        value = lp.objective.get("x", Fraction(0)) * x + lp.objective.get("y", Fraction(0)) * y
        if best is None or (value > best if lp.maximize else value < best):
            best = value
    return best


def test_random_2var_programs_match_vertex_enumeration():
    rng = random.Random(99)
    solved = 0
    for _ in range(120):
        lp = LinearProgram(maximize=bool(rng.getrandbits(1)))
        for v in ("x", "y"):
            lp.add_variable(v, upper=Fraction(rng.randint(1, 6)),
                            objective=Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(1, 4)):
            lp.add_constraint(
                {"x": Fraction(rng.randint(-3, 3)), "y": Fraction(rng.randint(-3, 3))},
                rng.choice(["<=", ">="]),
                Fraction(rng.randint(-4, 6)),
            )
        sol = solve_lp(lp)
        expected = _brute_force_2var(lp)
        if sol.status == INFEASIBLE:
            assert expected is None
            continue
        assert sol.status == OPTIMAL  # boxed variables: never unbounded
        assert sol.objective == expected
        assert check_solution(lp, sol)
        assert_dual_certificate(lp, sol)
        solved += 1
    assert solved > 40  # the sweep actually exercises the optimal path


# -- agreement with the flow feasibility test ----------------------------

def _funding_lp(instance, counts):
    lp = LinearProgram()
    for s in instance.supervisors:
        for p in instance.supervised[s]:
            lp.add_variable(f"x_{s}_{p}")
    for p in instance.projects:
        ss = instance.supervisors_of(p)
        lp.add_constraint({f"x_{s}_{p}": 1 for s in ss}, "=", counts[p])
    for s in instance.supervisors:
        lp.add_constraint({f"x_{s}_{p}": 1 for p in instance.supervised[s]},
                          "<=", instance.budgets[s])
    return lp


def test_lp_feasibility_agrees_with_flow():
    for seed in range(25):
        inst = random_instance(seed, max_applicants=6, max_projects=5,
                               max_supervisors=3)
        rng = random.Random(seed + 1000)
        m = random_matching(inst, rng)
        by_flow, _ = check_feasibility(inst, m)
        by_lp = solve_lp(_funding_lp(inst, m.counts(inst))).status == OPTIMAL
        assert by_flow == by_lp, seed


# -- export ---------------------------------------------------------------

def test_export_golden():
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", objective=3)
    lp.add_variable("y", upper=Fraction(2), objective=Fraction(1, 3))
    lp.add_constraint({"x": 1, "y": 1}, "<=", 4)
    lp.add_constraint({"x": Fraction(1, 2), "y": -1}, ">=", Fraction(-1))
    assert export_lp_text(lp) == (
        "Maximize\n"
        "\\ exact: y: 1/3\n"
        " obj: 3 x + 0.3333333333333333 y\n"
        "Subject To\n"
        " c1: 1 x + 1 y <= 4\n"
        " c2: 0.5 x - 1 y >= -1\n"
        "Bounds\n"
        " 0 <= y <= 2\n"
        "End\n"
    )


def test_export_is_deterministic():
    lp = LinearProgram()
    lp.add_variable("b", objective=1)
    lp.add_variable("a", objective=2)
    lp.add_constraint({"b": 1, "a": 1}, ">=", 1)
    assert export_lp_text(lp) == export_lp_text(lp)
