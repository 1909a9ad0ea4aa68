"""Exact rational linear programming by two-phase simplex with Bland's rule.

Dense tableau over Fractions; no tolerances anywhere.  Decisions such as
"is this constraint exactly tight" and "is this optimum exactly zero" are
meaningful, which the egalitarian allocation loop relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min/max of a linear objective over linear constraints.

    Variables have a finite lower bound (default 0; None means free) and an
    optional upper bound.  Constraints are (coeffs, sense, rhs) with sense
    one of "<=", "=", ">=".
    """

    maximize: bool = False
    variables: list[str] = field(default_factory=list)
    lower: dict[str, Fraction | None] = field(default_factory=dict)
    upper: dict[str, Fraction | None] = field(default_factory=dict)
    objective: dict[str, Fraction] = field(default_factory=dict)
    constraints: list[tuple[dict[str, Fraction], str, Fraction]] = field(default_factory=list)

    def add_variable(self, name: str, lower: Fraction | None = Fraction(0),
                     upper: Fraction | None = None, objective: Fraction | int = 0) -> str:
        if name in self.lower:
            raise ValueError(f"duplicate variable {name!r}")
        self.variables.append(name)
        self.lower[name] = None if lower is None else Fraction(lower)
        self.upper[name] = None if upper is None else Fraction(upper)
        coeff = Fraction(objective)
        if coeff:
            self.objective[name] = coeff
        return name

    def add_constraint(self, coeffs: Mapping[str, Fraction | int], sense: str,
                       rhs: Fraction | int) -> None:
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        clean = {v: Fraction(c) for v, c in coeffs.items() if c}
        for v in clean:
            if v not in self.lower:
                raise ValueError(f"unknown variable {v!r}")
        self.constraints.append((clean, sense, Fraction(rhs)))


@dataclass
class LpSolution:
    """Result of `solve_lp`.

    When optimal, ``duals[i]`` is the exact dual price of
    ``program.constraints[i]``: the rate at which the optimal objective
    changes per unit increase of that constraint's rhs.  So a "<=" row has
    a dual >= 0 in a maximization and <= 0 in a minimization, a ">=" row
    the opposite sign, and an "=" row either sign.  A nonzero dual implies
    the row is tight in every optimal solution (complementary slackness).
    """

    status: str
    assignment: dict[str, Fraction] = field(default_factory=dict)
    objective: Fraction | None = None
    duals: list[Fraction] = field(default_factory=list)

    def __getitem__(self, var: str) -> Fraction:
        return self.assignment[var]


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


def check_solution(program: LinearProgram, solution: LpSolution) -> bool:
    """Exact re-substitution of an optimal assignment into every constraint."""
    if solution.status != OPTIMAL:
        return False
    x = solution.assignment
    for v in program.variables:
        lb, ub = program.lower[v], program.upper[v]
        if lb is not None and x[v] < lb:
            return False
        if ub is not None and x[v] > ub:
            return False
    for coeffs, sense, rhs in program.constraints:
        lhs = sum((c * x[v] for v, c in coeffs.items()), Fraction(0))
        ok = {"<=": lhs <= rhs, "=": lhs == rhs, ">=": lhs >= rhs}[sense]
        if not ok:
            return False
    return True


# -- LP file export -------------------------------------------------------


def _render_coeff(x: Fraction) -> tuple[str, str | None]:
    """Decimal string when exact, else a float with the exact fraction
    returned separately for a comment."""
    num, den = x.numerator, x.denominator
    d = den
    for f in (2, 5):
        while d % f == 0:
            d //= f
    if d == 1:
        places = 0
        while (num * 10**places) % den:
            places += 1
        if places == 0:
            return str(num), None
        q = num * 10**places // den if num >= 0 else -((-num) * 10**places // den)
        sign = "-" if num < 0 else ""
        intpart, fracpart = divmod(abs(q), 10**places)
        return f"{sign}{intpart}.{str(fracpart).zfill(places)}", None
    return repr(float(x)), f"{num}/{den}"


def _render_expr(coeffs: Mapping[str, Fraction], order: Sequence[str]) -> tuple[str, list[str]]:
    terms = []
    notes = []
    for v in order:
        if v not in coeffs:
            continue
        c = coeffs[v]
        s, note = _render_coeff(abs(c))
        if note:
            notes.append(f"{v}: {('-' if c < 0 else '')}{note}")
        op = "-" if c < 0 else "+"
        terms.append(f"{op} {s} {v}")
    if not terms:
        return "0", notes
    text = " ".join(terms)
    return (text[2:] if text.startswith("+ ") else text), notes


def export_lp_text(program: LinearProgram) -> str:
    """Serialize in the industry LP file format (CPLEX dialect)."""
    lines = []
    lines.append("Maximize" if program.maximize else "Minimize")
    expr, notes = _render_expr(program.objective, program.variables)
    for n in notes:
        lines.append(f"\\ exact: {n}")
    lines.append(f" obj: {expr}")
    lines.append("Subject To")
    sense_map = {"<=": "<=", "=": "=", ">=": ">="}
    for i, (coeffs, sense, rhs) in enumerate(program.constraints, start=1):
        expr, notes = _render_expr(coeffs, program.variables)
        for n in notes:
            lines.append(f"\\ exact: {n}")
        r, rnote = _render_coeff(rhs)
        if rnote:
            lines.append(f"\\ exact rhs: {rnote}")
        lines.append(f" c{i}: {expr} {sense_map[sense]} {r}")
    bound_lines = []
    for v in program.variables:
        lb, ub = program.lower[v], program.upper[v]
        if lb == 0 and ub is None:
            continue
        if lb is None and ub is None:
            bound_lines.append(f" {v} free")
            continue
        lo = "-inf" if lb is None else _render_coeff(lb)[0]
        hi = "+inf" if ub is None else _render_coeff(ub)[0]
        bound_lines.append(f" {lo} <= {v} <= {hi}")
    if bound_lines:
        lines.append("Bounds")
        lines.extend(bound_lines)
    lines.append("End")
    return "\n".join(lines) + "\n"
