"""The exact simplex on a list tableau: the reference for `lp_bounds.exact`.

The same two phases, Bland's rule and dual read-off as `lp_bounds.exact`,
with each tableau line a list of Python ints over its positive denominator,
updated one cell at a time.  It shares only the result type with the array
tableau, so an equal `SimplexResult` (objective, x, duals and pivot count)
from both is an independent check of the array version's values and pivot
sequence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from rectbound.caps import SIMPLEX_PIVOTS
from rectbound.errors import ConvergenceError, ParameterRangeError
from rectbound.lp_bounds.exact import STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_UNBOUNDED, SimplexResult


def _integer_line(values) -> list[int]:
    """A row of rationals as ints over the lcm of their denominators, appended last."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values] + [den]


def _pivot(tableau, obj, basis, row, col) -> None:
    """Make tableau[row] read 1 in column col and clear col from every other line.

    Lines are updated in place, which is safe because no line is shared.
    """
    prow = tableau[row]
    if prow[col] < 0:
        prow[:] = [-v for v in prow]
    prow[-1] = p = prow[col]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    nonzero.pop()  # the denominator
    for line in chain(tableau, (obj,)):
        f = line[col]
        if f and line is not prow:
            # line * p - f * prow, in lowest terms
            if p != 1:
                line[:] = [v * p for v in line]
            for j, b in nonzero:
                line[j] -= f * b
            g = gcd(*line)
            if g != 1:
                line[:] = [v // g for v in line]
    basis[row] = col


def _run_phase(tableau, obj, basis, banned, iterations) -> tuple[str, int]:
    """Price the cost line obj out against the basis, then pivot to an optimum.

    Pivoting a row on its own basic column leaves the tableau as it is and
    zeroes that column in obj; obj is updated in place.
    """
    for i, bj in enumerate(basis):
        _pivot(tableau, obj, basis, i, bj)
    ncols = len(obj) - 2
    while True:
        entering = -1
        for j in range(ncols):
            if j not in banned and obj[j] < 0:
                entering = j
                break
        if entering < 0:
            return STATUS_OPTIMAL, iterations
        leaving = -1
        for i, trow in enumerate(tableau):
            coeff = trow[entering]
            if coeff > 0:
                if leaving >= 0:
                    here, there = trow[-2] * best_coeff, best_rhs * coeff
                    if here > there or (here == there and basis[i] > basis[leaving]):
                        continue
                leaving, best_rhs, best_coeff = i, trow[-2], coeff
        if leaving < 0:
            return STATUS_UNBOUNDED, iterations
        _pivot(tableau, obj, basis, leaving, entering)
        iterations += 1
        SIMPLEX_PIVOTS.check(iterations, "simplex pivots")


def solve_exact_lp(costs, rows) -> SimplexResult:
    """Minimize costs.x over x >= 0 subject to rows of (coeffs, sense, rhs)."""
    nstruct = len(costs)
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
    tableau: list[list[int]] = []
    row_sign: list[int] = []
    identity_col: list[int] = []
    slack_at = nstruct
    art_at = ncols
    for coeffs, sense, rhs in rows:
        *ints, rhs, den = _integer_line([*coeffs, rhs])
        sign = -1 if rhs < 0 else 1
        line = [sign * v for v in ints] + [0] * nslack + [sign * rhs, den]
        if sense != "==":
            line[slack_at] = (sign if sense == "<=" else -sign) * den
            slack_at += 1
        if sense != "==" and line[slack_at - 1] > 0:
            identity_col.append(slack_at - 1)
        else:
            identity_col.append(art_at)
            art_at += 1
        tableau.append(line)
        row_sign.append(sign)
    total_cols = art_at
    art_cols = set(range(ncols, total_cols))
    for line, col in zip(tableau, identity_col):
        line[-2:-2] = [0] * len(art_cols)  # artificials go before the rhs
        line[col] = line[-1]
    basis = list(identity_col)

    iterations = 0
    if art_cols:
        obj = [0] * ncols + [1] * len(art_cols) + [0, 1]
        status, iterations = _run_phase(tableau, obj, basis, set(), iterations)
        if status != STATUS_OPTIMAL:
            raise ConvergenceError(f"phase 1 ended {status}; its objective is bounded below by 0")
        if any(tableau[i][-2] > 0 for i in range(len(basis)) if basis[i] >= ncols):
            return SimplexResult(STATUS_INFEASIBLE, None, (), (), iterations)
        # Drive zero-valued artificials out; a row with no real pivot is
        # redundant and leaves the tableau.  No later pivot could change it:
        # phase 2 pivots only on structural and slack columns, where it is 0.
        for i, bj in enumerate(basis):
            if bj >= ncols:
                pivot_col = next((j for j in range(ncols) if tableau[i][j]), None)
                if pivot_col is not None:
                    _pivot(tableau, obj, basis, i, pivot_col)
                    iterations += 1
        kept = [i for i, bj in enumerate(basis) if bj < ncols]
        tableau, basis = [tableau[i] for i in kept], [basis[i] for i in kept]

    *cost_ints, cost_den = _integer_line(costs)
    obj = cost_ints + [0] * (total_cols - nstruct) + [0, cost_den]
    status, iterations = _run_phase(tableau, obj, basis, art_cols, iterations)
    if status == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, (), (), iterations)
    if any(bj >= ncols for bj in basis):
        raise ConvergenceError("artificial column left in the final basis")

    x = [Fraction(0)] * nstruct
    for line, bj in zip(tableau, basis):
        if bj < nstruct:
            x[bj] = Fraction(line[-2], line[-1])
    den = obj[-1]
    # The objective line's rhs is -c_B B^-1 b, and an identity column costs 0
    # in phase 2, so its reduced cost is minus the row's multiplier in c_B B^-1
    # (see the module docstring).
    objective = Fraction(-obj[-2], den)
    duals = tuple(Fraction(-sign * obj[col], den) for sign, col in zip(row_sign, identity_col))
    return SimplexResult(STATUS_OPTIMAL, objective, tuple(x), duals, iterations)
