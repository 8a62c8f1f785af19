"""Two-phase primal simplex over exact rationals, on an integer tableau.

Dense tableau, Bland's rule, so the solve terminates without any tolerance
knobs.  Meant for the small instances used to cross-check the floating-point
path.

Each line of the tableau, the objective line included, is a list of Python
ints whose last entry is the line's positive denominator: the line stands for
`line[:-1] / line[-1]`, with the rhs in `line[-2]`.  An input row is scaled
once, by the lcm of its denominators.  A pivot on entry p of row r negates
row r if p is negative, then makes p the row's denominator, so the pivot
entry reads 1.  Every other line with a nonzero f in the pivot column becomes
`line * p - f * row_r`: the scaling touches the whole line, its denominator
too, and the subtraction only row r's nonzeros.  The line is then divided by
its gcd, so its denominator is the lcm of its entries' reduced denominators.
The values are those of a Fraction tableau, at one gcd per line where
Fractions take one per cell.

Signs are read off the integers, since every denominator is positive: the
entering column is the first with a negative objective integer.  The ratio
test compares `rhs_i / a_i` with `rhs_k / a_k` as `rhs_i * a_k < rhs_k * a_i`:
each ratio is of two entries of one line, so the line's denominator cancels.
Bland's rule and the pivot sequence are those of the Fraction tableau.
Fractions are built only from the input and for the result.

Dual convention for `min c.x  s.t.  A x (sense) b, x >= 0`: the returned row
multipliers y satisfy `A^T y <= c` componentwise and `y.b == optimum`, with
y_i >= 0 on `>=` rows, y_i <= 0 on `<=` rows, free on `==` rows.

The duals are read off the final objective line.  Each normalized row i
(negated when its rhs is negative) starts the basis on an identity column:
its slack when that enters with +1, else an artificial.  That column costs 0
in phase 2 and holds B^-1 e_i in every later tableau, so its reduced cost is
-(c_B B^-1)_i and `y_i = -row_sign_i * obj[identity_col_i] / obj[-1]`.  This
holds also for a row phase 1 drops as redundant: its artificial stays basic
in a row no later pivot touches.  `A^T y <= c` and the signs are the
nonnegative reduced costs of the structural and slack columns; `y.b == c_B
B^-1 b`, which is minus the objective line's rhs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ..errors import ConvergenceError, ParameterRangeError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Fraction | None
    x: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]
    iterations: int


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
        if iterations > _MAX_PIVOTS:
            raise ConvergenceError(f"simplex exceeded {_MAX_PIVOTS} pivots")


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
