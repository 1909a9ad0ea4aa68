"""The Fraction simplex that `cutoffmatch.lp.solve_lp` replaced, kept as the
reference the integer tableau is tested against.

Dense tableau over Fractions, reduced costs recomputed on every iteration;
Bland's rule, columns ordered structural, slack, artificial, and ties in
the ratio test broken by the smallest basic column.  Slow, but every step
is plain rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from cutoffmatch.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpSolution


def solve_lp(program: LinearProgram) -> LpSolution:
    """Solve exactly; returns status optimal/infeasible/unbounded.

    Bland's anti-cycling rule guarantees termination.  Optimal solutions
    satisfy every constraint exactly (substitute and compare rationals).
    """
    # -- rewrite to: min c.y  s.t.  A y = b, y >= 0 ----------------------
    # each original variable becomes y (shifted by lower bound) or a pair
    # y+ - y- when free; upper bounds become extra rows.
    columns: list[str] = []              # synthetic column names
    col_of: dict[str, tuple] = {}        # var -> ("shift", col, lb) | ("split", c+, c-)
    for v in program.variables:
        lb = program.lower[v]
        if lb is None:
            cp, cm = f"{v}+", f"{v}-"
            columns.extend([cp, cm])
            col_of[v] = ("split", cp, cm)
        else:
            columns.append(v)
            col_of[v] = ("shift", v, lb)

    rows: list[tuple[dict[str, Fraction], str, Fraction]] = []

    def to_columns(coeffs: Mapping[str, Fraction], rhs: Fraction) -> tuple[dict[str, Fraction], Fraction]:
        out: dict[str, Fraction] = {}
        for v, c in coeffs.items():
            kind = col_of[v]
            if kind[0] == "shift":
                _, col, lb = kind
                out[col] = out.get(col, Fraction(0)) + c
                rhs -= c * lb
            else:
                _, cp, cm = kind
                out[cp] = out.get(cp, Fraction(0)) + c
                out[cm] = out.get(cm, Fraction(0)) - c
        return out, rhs

    for coeffs, sense, rhs in program.constraints:
        cols, r = to_columns(coeffs, rhs)
        rows.append((cols, sense, r))
    for v in program.variables:
        ub = program.upper[v]
        if ub is not None:
            cols, r = to_columns({v: Fraction(1)}, ub)
            rows.append((cols, "<=", r))

    obj_cols, _ = to_columns(program.objective, Fraction(0))
    sign = Fraction(-1) if program.maximize else Fraction(1)

    ncols = len(columns)
    col_index = {c: i for i, c in enumerate(columns)}

    # slack columns, then artificials
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_count = sum(1 for _, sense, _ in rows if sense != "=")
    total = ncols + slack_count + len(rows)  # upper bound on columns incl. artificials
    art_start = ncols + slack_count
    slack_i = 0
    art_cols: list[int] = []
    # per row: the column holding its starting unit entry (so, after any
    # pivots, the matching column of B^-1) and whether the row was negated
    unit_of: list[tuple[int, bool]] = []
    zero = Fraction(0)
    one = Fraction(1)

    for coeffs, sense, rhs in rows:
        row = [zero] * total
        for c, val in coeffs.items():
            row[col_index[c]] = val
        if sense == "<=":
            row[ncols + slack_i] = one
            slack_col = ncols + slack_i
            slack_i += 1
        elif sense == ">=":
            row[ncols + slack_i] = -one
            slack_col = None
            slack_i += 1
        else:
            slack_col = None
        negated = rhs < 0
        if negated:
            row = [-x for x in row]
            rhs = -rhs
            if sense == "<=":
                slack_col = None  # negated slack is -1, not basic-feasible
        row.append(rhs)
        if slack_col is not None:
            basis.append(slack_col)
        else:
            art = art_start + len(art_cols)
            row[art] = one
            art_cols.append(art)
            basis.append(art)
        unit_of.append((basis[-1], negated))
        tableau.append(row)

    rhs_col = total
    basis_set = set(basis)

    def pivot(r: int, c: int) -> None:
        prow = tableau[r]
        piv = prow[c]
        if piv != 1:
            prow = [x / piv for x in prow]
            tableau[r] = prow
        # touch only the nonzero columns of the pivot row
        nonzero = [j for j, x in enumerate(prow) if x]
        for i, row in enumerate(tableau):
            if i != r and row[c]:
                f = row[c]
                for j in nonzero:
                    row[j] -= f * prow[j]
        basis_set.discard(basis[r])
        basis_set.add(c)
        basis[r] = c

    def run_simplex(costs: list[Fraction], allowed: int) -> str:
        """Minimize costs.y over columns [0, allowed); Bland's rule."""
        while True:
            # reduced costs: c_j - c_B . B^-1 A_j
            reduced = list(costs[:allowed])
            for r, b in enumerate(basis):
                cb = costs[b]
                if cb:
                    row = tableau[r]
                    for j in range(allowed):
                        if row[j]:
                            reduced[j] -= cb * row[j]
            enter = -1
            for j in range(allowed):
                if j not in basis_set and reduced[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for r, row in enumerate(tableau):
                if row[enter] > 0:
                    ratio = row[rhs_col] / row[enter]
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    # phase 1: drive artificials to zero
    if art_cols:
        costs1 = [zero] * (total + 1)
        for a in art_cols:
            costs1[a] = one
        run_simplex(costs1, total)
        infeas = sum(tableau[r][rhs_col] for r, b in enumerate(basis) if b in art_cols)
        if infeas > 0:
            return LpSolution(INFEASIBLE)
        # pivot artificials out of the basis where possible
        for r, b in enumerate(basis):
            if b in art_cols:
                for j in range(art_start):
                    if tableau[r][j]:
                        pivot(r, j)
                        break
                # else: redundant row; artificial stays basic at zero

    # phase 2
    costs2 = [zero] * (total + 1)
    for c, val in obj_cols.items():
        costs2[col_index[c]] = sign * val
    status = run_simplex(costs2, art_start)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    values = [zero] * total
    for r, b in enumerate(basis):
        values[b] = tableau[r][rhs_col]
    assignment: dict[str, Fraction] = {}
    for v in program.variables:
        kind = col_of[v]
        if kind[0] == "shift":
            _, col, lb = kind
            assignment[v] = values[col_index[col]] + lb
        else:
            _, cp, cm = kind
            assignment[v] = values[col_index[cp]] - values[col_index[cm]]
    # assignment is already in original variable space, so the objective is a
    # plain substitution; no lower-bound shift correction applies here
    obj = sum(
        (program.objective.get(v, zero) * assignment[v] for v in program.variables),
        zero,
    )
    # y = c_B . B^-1, then undo the row negation and the min/max sign
    units = unit_of[:len(program.constraints)]
    duals = [zero] * len(units)
    for r, b in enumerate(basis):
        cb = costs2[b]
        if cb:
            row = tableau[r]
            for i, (col, _) in enumerate(units):
                if row[col]:
                    duals[i] += cb * row[col]
    duals = [-y * sign if negated else y * sign for y, (_, negated) in zip(duals, units)]
    return LpSolution(OPTIMAL, assignment, obj, duals)
