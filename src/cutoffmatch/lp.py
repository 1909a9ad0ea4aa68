"""Exact rational linear programming by two-phase simplex with Bland's rule.

Dense tableau of Python ints, one positive denominator per row, each row
kept in lowest terms; Fractions appear only where a program comes in and a
solution goes out.  No tolerances anywhere.  Decisions such as "is this
constraint exactly tight" and "is this optimum exactly zero" are
meaningful, which the egalitarian allocation loop relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
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


def _pivot(rows: list[list[int]], dens: list[int], r: int, c: int) -> None:
    """Pivot on entry (r, c) of a tableau whose row i stands for
    ``rows[i] / dens[i]``: Python ints over one positive denominator, kept
    in lowest terms.  Rows with a zero in column c are not touched."""
    q = rows[r]
    pd = q[c]
    if pd < 0:
        q = [-x for x in q]
        pd = -pd
    g = gcd(*q)
    if g > 1:
        q = [x // g for x in q]
        pd //= g
    rows[r] = q
    dens[r] = pd
    nonzero = [(j, x) for j, x in enumerate(q) if x]
    for i, row in enumerate(rows):
        f = row[c]
        if not f or i == r:
            continue
        # row/den - (f/den)(q/pd) = (row*pd - f*q) / (den*pd), in place
        den = dens[i]
        if pd != 1:
            row = [x * pd for x in row]
            den *= pd
            rows[i] = row
        for j, x in nonzero:
            row[j] -= f * x
        g = gcd(*row, den)
        if g > 1:
            rows[i] = [x // g for x in row]
            den //= g
        dens[i] = den


def solve_lp(program: LinearProgram) -> LpSolution:
    """Solve exactly; returns status optimal/infeasible/unbounded.

    Bland's anti-cycling rule guarantees termination.  Optimal solutions
    satisfy every constraint exactly (substitute and compare rationals).
    """
    # -- rewrite to: min c.y  s.t.  A y = b, y >= 0 ----------------------
    # each original variable becomes a column y (shifted by its lower
    # bound) or, when free, a pair y+ - y-; upper bounds become extra rows.
    col_of: dict[str, tuple[int, int, Fraction | None]] = {}  # var -> (col, minus col, lb)
    ncols = 0
    for v in program.variables:
        lb = program.lower[v]
        if lb is None:
            col_of[v] = (ncols, ncols + 1, None)
            ncols += 2
        else:
            col_of[v] = (ncols, -1, lb)
            ncols += 1

    def to_columns(coeffs: Mapping[str, Fraction], rhs: Fraction) -> tuple[dict[int, Fraction], Fraction]:
        out: dict[int, Fraction] = {}
        for v, c in coeffs.items():
            col, minus, lb = col_of[v]
            out[col] = c
            if minus >= 0:
                out[minus] = -c
            elif lb:
                rhs -= c * lb
        return out, rhs

    rows = [(*to_columns(coeffs, rhs), sense) for coeffs, sense, rhs in program.constraints]
    for v in program.variables:
        ub = program.upper[v]
        if ub is not None:
            rows.append((*to_columns({v: Fraction(1)}, ub), "<="))

    # columns: structural, one slack per inequality row, then one artificial
    # per row that has no slack to start the basis with; the rhs comes last
    slack_count = sum(1 for _, _, sense in rows if sense != "=")
    art_start = ncols + slack_count
    art_count = sum(1 for _, rhs, sense in rows if sense != "<=" or rhs < 0)
    width = art_start + art_count + 1
    tab: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    # per row: the column holding its starting unit entry (so, after any
    # pivots, the matching column of B^-1) and whether the row was negated
    unit_of: list[tuple[int, bool]] = []
    slack = ncols
    art = art_start
    for coeffs, rhs, sense in rows:
        den = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
        row = [0] * width
        for j, c in coeffs.items():
            row[j] = c.numerator * (den // c.denominator)
        row[-1] = rhs.numerator * (den // rhs.denominator)
        if sense != "=":
            row[slack] = den if sense == "<=" else -den
            slack += 1
        negated = row[-1] < 0
        if negated:
            row = [-x for x in row]
        if sense == "<=" and not negated:
            basis.append(slack - 1)
        else:
            row[art] = den
            basis.append(art)
            art += 1
        unit_of.append((basis[-1], negated))
        tab.append(row)
        dens.append(den)
    m = len(tab)

    # reduced-cost rows ride along as the last rows of the tableau: phase 2's
    # costs (the starting basis costs nothing), and during phase 1 its
    # costs, 1 per artificial, minus the sum of the artificial rows
    sign = -1 if program.maximize else 1
    obj_cols, _ = to_columns(program.objective, Fraction(0))
    den = lcm(*(c.denominator for c in obj_cols.values()))
    z = [0] * width
    for j, c in obj_cols.items():
        z[j] = sign * c.numerator * (den // c.denominator)
    tab.append(z)
    dens.append(den)

    def run_simplex(allowed: int) -> bool:
        """Minimize the last row's costs over columns [0, allowed) by
        Bland's rule; False when unbounded."""
        z = tab[-1]
        while True:
            for enter in range(allowed):
                if z[enter] < 0:
                    break
            else:
                return True
            # min ratio rhs/e over rows with e > 0 (their denominators
            # cancel), ties to the smallest basic column
            leave = -1
            for r in range(m):
                row = tab[r]
                e = row[enter]
                if e > 0:
                    b = row[-1]
                    if leave < 0:
                        leave, best_b, best_e = r, b, e
                        continue
                    new, old = b * best_e, best_b * e
                    if new < old or (new == old and basis[r] < basis[leave]):
                        leave, best_b, best_e = r, b, e
            if leave < 0:
                return False
            _pivot(tab, dens, leave, enter)
            basis[leave] = enter
            z = tab[-1]

    if art_count:
        art_rows = [r for r in range(m) if basis[r] >= art_start]
        den = lcm(*(dens[r] for r in art_rows))
        w = [0] * width
        for r in art_rows:
            k = den // dens[r]
            for j, x in enumerate(tab[r]):
                if x:
                    w[j] -= k * x
        for j in range(art_start, width - 1):
            w[j] += den
        g = gcd(*w, den)
        tab.append([x // g for x in w])
        dens.append(den // g)
        run_simplex(width - 1)
        tab.pop()
        dens.pop()
        if any(tab[r][-1] for r in range(m) if basis[r] >= art_start):
            return LpSolution(INFEASIBLE)
        # pivot artificials out of the basis where possible
        for r in range(m):
            if basis[r] >= art_start:
                row = tab[r]
                for j in range(art_start):
                    if row[j]:
                        _pivot(tab, dens, r, j)
                        basis[r] = j
                        break
                # else: redundant row; artificial stays basic at zero

    if not run_simplex(art_start):
        return LpSolution(UNBOUNDED)

    values = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            values[b] = Fraction(tab[r][-1], dens[r])
    assignment: dict[str, Fraction] = {}
    for v in program.variables:
        col, minus, lb = col_of[v]
        assignment[v] = values[col] - values[minus] if minus >= 0 else values[col] + lb
    obj = sum((c * assignment[v] for v, c in program.objective.items()), Fraction(0))
    # y_i = c_B B^-1 e_i is minus the reduced cost of row i's unit column;
    # then undo the row negation and the min/max sign
    z, dz = tab[m], dens[m]
    duals = [Fraction(z[col] * (sign if negated else -sign), dz)
             for col, negated in unit_of[:len(program.constraints)]]
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
