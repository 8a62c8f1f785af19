"""Two-phase primal simplex over exact rationals.

Dense tableau, Bland's rule, so the solve terminates without any tolerance
knobs.  Meant for the small instances used to cross-check the floating-point
path.  A pivot updates only the pivot row's nonzero columns; elsewhere the
dense update `a - f * 0` would leave the entry as it is, so the arithmetic
and Bland's pivot sequence are those of the dense tableau.

Dual convention for `min c.x  s.t.  A x (sense) b, x >= 0`: the returned row
multipliers y satisfy `A^T y <= c` componentwise and `y.b == optimum`, with
y_i >= 0 on `>=` rows, y_i <= 0 on `<=` rows, free on `==` rows.

The duals are read off the final objective row.  Each normalized row i
(negated when its rhs is negative) starts the basis on an identity column:
its slack when that enters with +1, else an artificial.  That column costs 0
in phase 2 and holds B^-1 e_i in every later tableau, so its reduced cost is
-(c_B B^-1)_i and `y_i = -row_sign_i * obj[identity_col_i]`.  This holds
also for a row phase 1 drops as redundant: its artificial stays basic in a
row no later pivot touches.  `A^T y <= c` and the signs are the nonnegative
reduced costs of the structural and slack columns; `y.b == c_B B^-1 b`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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


def _pivot(tableau, obj, basis, row, col) -> None:
    """Scale tableau[row] to a 1 in column col and clear col from every other line.

    Lines are updated in place, which is safe because no line is shared.
    """
    prow = tableau[row]
    inv = _ONE / prow[col]
    nonzero = []
    for j, v in enumerate(prow):
        if v:
            prow[j] = v = v * inv
            nonzero.append((j, v))
    for line in chain(tableau, (obj,)):
        f = line[col]
        if f and line is not prow:
            for j, b in nonzero:
                line[j] -= f * b
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


def solve_exact_lp(costs, rows) -> SimplexResult:
    """Minimize costs.x over x >= 0 subject to rows of (coeffs, sense, rhs)."""
    nstruct = len(costs)
    costs = [Fraction(c) for c in costs]
    for coeffs, sense, _ in rows:
        if len(coeffs) != nstruct:
            raise ParameterRangeError("constraint width does not match the cost vector")
        if sense not in (">=", "<=", "=="):
            raise ParameterRangeError(f"unknown sense {sense!r}")

    # Columns: structural, then one slack or surplus per inequality, then the
    # artificials.  A row with negative rhs is negated first.  Each row starts
    # the basis on an identity column: its slack when that enters with +1,
    # otherwise an artificial of its own.
    nslack = sum(1 for _, sense, _ in rows if sense != "==")
    ncols = nstruct + nslack
    tableau: list[list[Fraction]] = []
    row_sign: list[int] = []
    identity_col: list[int] = []
    slack_at = nstruct
    art_at = ncols
    for coeffs, sense, rhs in rows:
        rhs = Fraction(rhs)
        sign = -1 if rhs < 0 else 1
        line = [sign * Fraction(v) for v in coeffs] + [_ZERO] * nslack + [sign * rhs]
        slack = 0
        if sense != "==":
            slack = sign if sense == "<=" else -sign
            line[slack_at] = Fraction(slack)
            slack_at += 1
        if slack == 1:
            identity_col.append(slack_at - 1)
        else:
            identity_col.append(art_at)
            art_at += 1
        tableau.append(line)
        row_sign.append(sign)
    total_cols = art_at
    art_cols = set(range(ncols, total_cols))
    for line, col in zip(tableau, identity_col):
        line[-1:-1] = [_ZERO] * len(art_cols)  # artificials go before the rhs
        line[col] = _ONE
    basis = list(identity_col)

    iterations = 0
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
        # redundant and leaves the tableau.  No later pivot could change it:
        # phase 2 pivots only on structural and slack columns, where it is 0.
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

    phase2_costs = costs + [_ZERO] * (total_cols - nstruct)
    obj = _reduced_costs(phase2_costs, tableau, basis, total_cols)
    status, iterations = _run_phase(tableau, obj, basis, art_cols, iterations)
    if status == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, (), (), iterations)
    if any(bj >= ncols for bj in basis):
        raise ConvergenceError("artificial column left in the final basis")

    x = [_ZERO] * nstruct
    for i, bj in enumerate(basis):
        if bj < nstruct:
            x[bj] = tableau[i][-1]
    objective = sum((costs[j] * x[j] for j in range(nstruct)), _ZERO)
    # An identity column costs 0 in phase 2, so its reduced cost is minus the
    # row's multiplier in c_B B^-1 (see the module docstring).
    duals = tuple(-sign * obj[col] for sign, col in zip(row_sign, identity_col))
    return SimplexResult(STATUS_OPTIMAL, objective, tuple(x), duals, iterations)
