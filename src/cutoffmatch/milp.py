"""Maximum-size cutoff stable matching by exact branch-and-bound MILP.

The model has one binary assignment variable per mutually acceptable
applicant-project pair, a continuous funding variable per supervisor-
project pair, and an integer cutoff per project.  Cutoff-admission
constraints tie the assignment to the cutoffs; the objective rewards each
matched applicant with a constant W large enough to dominate any total
cutoff change, then minimizes the cutoff sum so the cutoffs come out
minimal, i.e. the matching is cutoff stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from cutoffmatch.lp import OPTIMAL, LinearProgram, export_lp_text, solve_lp
from cutoffmatch.model import Instance
from cutoffmatch.stability import CutoffVector, Matching, check_stability


class NodeLimitExceeded(RuntimeError):
    pass


class VerificationFailure(RuntimeError):
    """The MILP optimum failed the independent cutoff-stability check."""


@dataclass
class MilpModel:
    instance: Instance
    program: LinearProgram
    y_vars: list[tuple[str, str, str]]  # (name, applicant, project)
    x_vars: list[tuple[str, str, str]]  # (name, supervisor, project)
    d_vars: list[tuple[str, str]]       # (name, project)
    big_w: int


def build_model(instance: Instance) -> MilpModel:
    """Assemble the relaxed program plus integrality metadata.

    W = |P|(|A|+1)+1, strictly larger than any possible cutoff sum, so one
    extra matched applicant always outweighs the cutoff term.  Capacity
    rows are included even though the induced-matching constraints do not
    imply them.  Variables are named by position (``y_<i>_<j>`` for
    applicant i and project j, ``x_<k>_<j>`` for supervisor k, ``d_<j>``),
    so any ids give distinct names.
    """
    n = len(instance.applicants)
    big_m = n + 1
    big_w = len(instance.projects) * big_m + 1
    lp = LinearProgram(maximize=True)

    a_pos = {a: i for i, a in enumerate(instance.applicants)}
    p_pos = {p: j for j, p in enumerate(instance.projects)}
    y_vars = []
    for a, p in instance.acceptable_pairs():
        name = f"y_{a_pos[a]}_{p_pos[p]}"
        lp.add_variable(name, Fraction(0), Fraction(1), objective=big_w)
        y_vars.append((name, a, p))
    x_vars = []
    for k, s in enumerate(instance.supervisors):
        for p in instance.supervised[s]:
            name = f"x_{k}_{p_pos[p]}"
            lp.add_variable(name, Fraction(0))
            x_vars.append((name, s, p))
    d_vars = []
    for p in instance.projects:
        name = f"d_{p_pos[p]}"
        lp.add_variable(name, Fraction(0), Fraction(big_m), objective=-1)
        d_vars.append((name, p))

    y_name = {(a, p): name for name, a, p in y_vars}
    x_name = {(s, p): name for name, s, p in x_vars}
    d_name = dict((p, name) for name, p in d_vars)

    # each applicant matched at most once
    for a in instance.applicants:
        coeffs = {y_name[(a, p)]: 1 for p in instance.applicant_prefs[a] if (a, p) in y_name}
        if coeffs:
            lp.add_constraint(coeffs, "<=", 1)
    # per project: matched count equals funding received; capacity
    for p in instance.projects:
        coeffs: dict[str, Fraction | int] = {
            y_name[(a, p)]: 1 for a in instance.project_prefs[p] if (a, p) in y_name
        }
        funding = {x_name[(s, p)]: -1 for s in instance.supervisors_of(p)}
        lp.add_constraint({**coeffs, **funding}, "=", 0)
        if coeffs:
            lp.add_constraint(coeffs, "<=", instance.capacities[p])
    # supervisor budgets
    for s in instance.supervisors:
        coeffs = {x_name[(s, p)]: 1 for p in instance.supervised[s]}
        if coeffs:
            lp.add_constraint(coeffs, "<=", instance.budgets[s])
    # admission: matched implies score reaches the cutoff
    for name, a, p in y_vars:
        z = instance.score(a, p)
        lp.add_constraint({d_name[p]: 1, name: big_m}, "<=", big_m + z)
    # rejection: not matched to p or better implies cutoff above score
    for name, a, p in y_vars:
        z = instance.score(a, p)
        better_or_equal = {}
        for p2 in instance.applicant_prefs[a]:
            if (a, p2) in y_name:
                better_or_equal[y_name[(a, p2)]] = big_m
            if p2 == p:
                break
        coeffs = {d_name[p]: Fraction(1)}
        for v, c in better_or_equal.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + c
        lp.add_constraint(coeffs, ">=", z + 1)
    return MilpModel(instance, lp, y_vars, x_vars, d_vars, big_w)


def _is_integer(x: Fraction) -> bool:
    return x.denominator == 1


def _branch_and_bound(model: MilpModel, node_limit: int | None):
    """Depth-first B&B over the y then d variables with exact LP bounds."""
    lp = model.program
    int_vars = [name for name, _, _ in model.y_vars] + [name for name, _ in model.d_vars]
    y_names = {name for name, _, _ in model.y_vars}

    best_obj: Fraction | None = None
    best_assignment: dict[str, Fraction] | None = None
    nodes = 0

    # stack of bound overrides {var: (lb, ub)}
    stack: list[dict[str, tuple[Fraction, Fraction]]] = [{}]
    while stack:
        bounds = stack.pop()
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise NodeLimitExceeded(f"exceeded branch-and-bound node limit {node_limit}")
        saved = {}
        for v, (lo, hi) in bounds.items():
            saved[v] = (lp.lower[v], lp.upper[v])
            lp.lower[v], lp.upper[v] = lo, hi
        try:
            sol = solve_lp(lp)
        finally:
            for v, (lo, hi) in saved.items():
                lp.lower[v], lp.upper[v] = lo, hi
        if sol.status != OPTIMAL:
            continue
        if best_obj is not None and sol.objective <= best_obj:
            continue  # bound cannot beat the incumbent
        # pick a fractional integer variable: most-fractional y, then first d
        frac_y = None
        frac_y_dist = None
        frac_d = None
        for v in int_vars:
            val = sol.assignment[v]
            if _is_integer(val):
                continue
            if v in y_names:
                dist = abs(val - Fraction(1, 2))
                if frac_y is None or dist < frac_y_dist:
                    frac_y, frac_y_dist = v, dist
            elif frac_d is None:
                frac_d = v
        branch_var = frac_y if frac_y is not None else frac_d
        if branch_var is None:
            best_obj = sol.objective
            best_assignment = dict(sol.assignment)
            continue
        val = sol.assignment[branch_var]
        floor = Fraction(val.numerator // val.denominator)
        lo0, hi0 = lp.lower[branch_var], lp.upper[branch_var]
        lo0 = bounds.get(branch_var, (lo0, hi0))[0]
        hi0 = bounds.get(branch_var, (lo0, hi0))[1]
        down = dict(bounds)
        down[branch_var] = (lo0, floor)
        up = dict(bounds)
        up[branch_var] = (floor + 1, hi0)
        # explore the round-up side first: matching more applicants early
        # gives a strong incumbent for pruning
        stack.append(down)
        stack.append(up)
    return best_obj, best_assignment, nodes


def solve_max_cutoff_stable(
    instance: Instance, node_limit: int | None = None,
    verify: bool = True,
) -> tuple[Matching, CutoffVector, Fraction, int]:
    """Exact maximum-size cutoff stable matching.

    Returns (matching, cutoffs, objective, nodes explored).  The result is
    re-verified with the independent stability checker unless ``verify`` is
    disabled; a verification failure raises (it would indicate a model bug).
    """
    model = build_model(instance)
    best_obj, assignment, nodes = _branch_and_bound(model, node_limit)
    if best_obj is None or assignment is None:
        raise RuntimeError("MILP has no feasible point; the empty matching should always fit")
    pairs = frozenset(
        (a, p) for name, a, p in model.y_vars if assignment[name] == 1
    )
    matching = Matching(pairs)
    cutoffs = CutoffVector(
        {p: int(assignment[name]) for name, p in model.d_vars}
    )
    if verify:
        verdict = check_stability(instance, matching)
        if not verdict.at_least("cutoff"):
            raise VerificationFailure(
                f"MILP optimum classified {verdict.level}, expected cutoff stable"
            )
    return matching, cutoffs, best_obj, nodes


def export_lp_file(model: MilpModel, path: str) -> None:
    """Write the model in LP file format; deterministic, byte-stable.

    After the objective sense, one comment per variable names its ids,
    JSON-escaped so that any id stays on one line.
    """
    q = json.dumps
    legend = [f"\\ {v}: applicant {q(a)}, project {q(p)}" for v, a, p in model.y_vars]
    legend += [f"\\ {v}: supervisor {q(s)}, project {q(p)}" for v, s, p in model.x_vars]
    legend += [f"\\ {v}: project {q(p)}" for v, p in model.d_vars]
    sense, body = export_lp_text(model.program).split("\n", 1)
    with open(path, "w") as fh:
        fh.write("\n".join([sense, *legend, body]))
