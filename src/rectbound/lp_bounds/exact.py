"""Two-phase primal simplex over exact rationals.

Dense tableau, Bland's rule, so the solve terminates without any tolerance
knobs.  Meant for the small instances used to cross-check the floating-point
path.  A pivot updates only the pivot row's nonzero columns; elsewhere the
dense update `a - f * 0` would leave the entry as it is, so the arithmetic
and Bland's pivot sequence are those of the dense tableau.

Dual convention for `min c.x  s.t.  A x (sense) b, x >= 0`: the returned row
multipliers y satisfy `A^T y <= c` componentwise and `y.b == optimum`, with
y_i >= 0 on `>=` rows, y_i <= 0 on `<=` rows, free on `==` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ConvergenceError, ParameterRangeError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Fraction | None
    x: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]
    iterations: int


def _eliminate(rows, row, col) -> list[tuple[int, Fraction]]:
    """Scale rows[row] to a 1 in column col and clear col from the other rows.

    Rows are updated in place, which is safe because no row list is shared.
    Returns the scaled pivot row's nonzeros as (column, value) pairs.
    """
    prow = rows[row]
    inv = _ONE / prow[col]
    nonzero = []
    for j, v in enumerate(prow):
        if v:
            prow[j] = v = v * inv
            nonzero.append((j, v))
    for i, trow in enumerate(rows):
        f = trow[col]
        if f and i != row:
            for j, b in nonzero:
                trow[j] -= f * b
    return nonzero


def _pivot(tableau, obj, basis, row, col) -> None:
    nonzero = _eliminate(tableau, row, col)
    f = obj[col]
    if f:
        for j, b in nonzero:
            obj[j] -= f * b
    basis[row] = col


def _reduced_costs(costs, tableau, basis, ncols):
    obj = list(costs) + [_ZERO]
    for i, bj in enumerate(basis):
        cb = costs[bj]
        if cb:
            row = tableau[i]
            for j in range(ncols + 1):
                if row[j]:
                    obj[j] -= cb * row[j]
    return obj


def _run_phase(tableau, obj, basis, banned, iterations) -> tuple[str, int]:
    ncols = len(obj) - 1
    while True:
        entering = -1
        for j in range(ncols):
            if j not in banned and obj[j] < 0:
                entering = j
                break
        if entering < 0:
            return STATUS_OPTIMAL, iterations
        leaving = -1
        best = None
        for i, trow in enumerate(tableau):
            coeff = trow[entering]
            if coeff > 0:
                ratio = trow[-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return STATUS_UNBOUNDED, iterations
        _pivot(tableau, obj, basis, leaving, entering)
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise ConvergenceError(f"simplex exceeded {_MAX_PIVOTS} pivots")


def _solve_transposed(columns, rhs):
    """Solve B^T y = rhs by Gaussian elimination; columns are the rows of B^T."""
    m = len(rhs)
    aug = [list(columns[i]) + [rhs[i]] for i in range(m)]
    where = [-1] * m
    row = 0
    for col in range(m):
        pivot_row = next((r for r in range(row, m) if aug[r][col]), None)
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        _eliminate(aug, row, col)
        where[col] = row
        row += 1
    y = [_ZERO] * m
    for col in range(m):
        if where[col] >= 0:
            y[col] = aug[where[col]][-1]
    return y


def solve_exact_lp(costs, rows) -> SimplexResult:
    """Minimize costs.x over x >= 0 subject to rows of (coeffs, sense, rhs)."""
    nstruct = len(costs)
    costs = [Fraction(c) for c in costs]
    m = len(rows)
    for coeffs, sense, _ in rows:
        if len(coeffs) != nstruct:
            raise ParameterRangeError("constraint width does not match the cost vector")
        if sense not in (">=", "<=", "=="):
            raise ParameterRangeError(f"unknown sense {sense!r}")

    # Normalized equations: structural columns, then one slack or surplus per
    # inequality, then artificials.  Rows with negative rhs are negated first.
    nslack = sum(1 for _, sense, _ in rows if sense != "==")
    ncols = nstruct + nslack
    eq_rows: list[list[Fraction]] = []
    eq_rhs: list[Fraction] = []
    row_sign: list[int] = []
    slack_col_of_row: list[int | None] = []
    slack_at = nstruct
    for coeffs, sense, rhs in rows:
        line = [Fraction(v) for v in coeffs] + [_ZERO] * nslack
        rhs = Fraction(rhs)
        col = None
        if sense != "==":
            col = slack_at
            line[col] = _ONE if sense == "<=" else -_ONE
            slack_at += 1
        if rhs < 0:
            line = [-v for v in line]
            rhs = -rhs
            row_sign.append(-1)
        else:
            row_sign.append(1)
        eq_rows.append(line)
        eq_rhs.append(rhs)
        slack_col_of_row.append(col)

    # Initial basis: the slack when it enters with +1, an artificial otherwise.
    basis: list[int] = []
    art_cols: set[int] = set()
    for i in range(m):
        col = slack_col_of_row[i]
        if col is not None and eq_rows[i][col] == 1:
            basis.append(col)
        else:
            art = ncols + len(art_cols)
            art_cols.add(art)
            basis.append(art)
    total_cols = ncols + len(art_cols)
    tableau: list[list[Fraction]] = []
    art_seen = 0
    for i in range(m):
        line = eq_rows[i] + [_ZERO] * len(art_cols) + [eq_rhs[i]]
        if basis[i] >= ncols:
            line[ncols + art_seen] = _ONE
            art_seen += 1
        tableau.append(line)

    iterations = 0
    kept = list(range(m))
    if art_cols:
        phase1_costs = [_ZERO] * ncols + [_ONE] * len(art_cols)
        obj = _reduced_costs(phase1_costs, tableau, basis, total_cols)
        status, iterations = _run_phase(tableau, obj, basis, set(), iterations)
        if status != STATUS_OPTIMAL:
            raise ConvergenceError(f"phase 1 ended {status}; its objective is bounded below by 0")
        infeasibility = sum(
            tableau[i][-1] for i in range(len(basis)) if basis[i] >= ncols
        )
        if infeasibility > 0:
            return SimplexResult(STATUS_INFEASIBLE, None, (), (), iterations)
        # Drive zero-valued artificials out; a row with no real pivot is
        # redundant and leaves the tableau (its dual is fixed at zero).
        drop: list[int] = []
        for i in range(len(basis)):
            if basis[i] < ncols:
                continue
            pivot_col = next((j for j in range(ncols) if tableau[i][j]), None)
            if pivot_col is None:
                drop.append(i)
            else:
                _pivot(tableau, obj, basis, i, pivot_col)
                iterations += 1
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
            del kept[i]

    phase2_costs = costs + [_ZERO] * (total_cols - nstruct)
    obj = _reduced_costs(phase2_costs, tableau, basis, total_cols)
    status, iterations = _run_phase(tableau, obj, basis, art_cols, iterations)
    if status == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, (), (), iterations)

    x = [_ZERO] * nstruct
    for i, bj in enumerate(basis):
        if bj < nstruct:
            x[bj] = tableau[i][-1]
    objective = sum((costs[j] * x[j] for j in range(nstruct)), _ZERO)

    # Duals from the optimal basis of the surviving normalized rows.
    columns = []
    cb = []
    for i, bj in enumerate(basis):
        if bj >= ncols:
            raise ConvergenceError("artificial column left in the final basis")
        columns.append([eq_rows[kept[r]][bj] for r in range(len(kept))])
        cb.append(phase2_costs[bj])
    y_kept = _solve_transposed(columns, cb) if kept else []
    duals = [_ZERO] * m
    for pos, i in enumerate(kept):
        duals[i] = row_sign[i] * y_kept[pos]
    return SimplexResult(STATUS_OPTIMAL, objective, tuple(x), tuple(duals), iterations)
