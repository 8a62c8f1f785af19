"""Two-phase primal simplex over exact rationals, on one integer array.

Dense tableau, Bland's rule, so the solve terminates without any tolerance
knobs.  Meant for the small instances used to cross-check the floating-point
path.

The tableau is one 2-D array: the constraint rows, then the objective row.
Each row ends in its positive denominator and stands for `row[:-1] /
row[-1]`, with the rhs in column -2.  An input row is scaled once, by the lcm
of its denominators; an int8 row (solve_full_enumeration's 0/1 block) has
only its rhs's.  A pivot on entry p of row r negates row r if p < 0, then
makes p its denominator, so the pivot entry reads 1.  Every other row with a
nonzero f in the pivot column becomes `row * p - f * row_r`, its denominator
only scaled, divided by its gcd.  The values are those of a Fraction tableau,
so signs, ratios and Bland's pivots are too: the entering column is the first
with a negative objective entry, and the ratio test compares `rhs_i * a_k`
with `rhs_k * a_i` in Python ints.  The array is int64 while the bound
`max|T| * (|p| + max|f|)`, checked before each elimination, stays below 2^62
(`combinatorics.int_dtype`); past it the tableau becomes an object array of
Python ints once, and the same code runs.  Fractions are built only for x,
the objective and the duals.

Dual convention for `min c.x  s.t.  A x (sense) b, x >= 0`: the returned row
multipliers y satisfy `A^T y <= c` componentwise and `y.b == optimum`, with
y_i >= 0 on `>=` rows, y_i <= 0 on `<=` rows, free on `==` rows.

The duals are read off the final objective row.  Each normalized row i
(negated when its rhs is negative) starts the basis on an identity column:
its slack when that enters with +1, else an artificial.  That column costs 0
in phase 2 and holds B^-1 e_i in every later tableau, so its reduced cost is
-(c_B B^-1)_i and `y_i = -row_sign_i * obj[identity_col_i] / obj[-1]`.  This
holds also for a row phase 1 drops as redundant: its artificial stays basic
in a row no later pivot touches.  `A^T y <= c` and the signs are the
nonnegative reduced costs of the structural and slack columns; `y.b == c_B
B^-1 b`, which is minus the objective row's rhs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from ..caps import SIMPLEX_PIVOTS
from ..combinatorics import int_dtype
from ..errors import ConvergenceError, ParameterRangeError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


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


def _integer_rows(rows, nstruct) -> tuple[np.ndarray, list[int], list[int]]:
    """The rows' coefficients and rhs over each row's lcm, and the lcms; int8 rows skip Fraction."""
    if rows and all(isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int8 for coeffs, _, _ in rows):
        rhs, dens = map(list, zip(*(_integer_line([b]) for _, _, b in rows)))
        scale = np.array(dens, dtype=int_dtype(max(dens) << 7))[:, None]
        return np.array([coeffs for coeffs, _, _ in rows], dtype=scale.dtype) * scale, rhs, dens
    lines = [_integer_line([*coeffs, rhs]) for coeffs, _, rhs in rows]
    block = np.array([line[:-2] for line in lines], dtype=object).reshape(len(rows), nstruct)
    return block, [line[-2] for line in lines], [line[-1] for line in lines]


def _pivot(tableau, basis, row, col) -> np.ndarray:
    """Make tableau[row] read 1 in column col and clear col from the other rows; returns the tableau."""
    if tableau[row, col] < 0:
        tableau[row] *= -1
    tableau[row, -1] = tableau[row, col]
    basis[row] = col
    hit = tableau[:, col].nonzero()[0]
    hit = hit[hit != row]
    if not hit.size:
        return tableau
    if tableau.dtype != object:  # int64 while the elimination's bound stays below 2^62
        bound = int(np.abs(tableau).max()) * int(tableau[row, col] + np.abs(tableau[hit, col]).max())
        tableau = tableau.astype(int_dtype(bound), copy=False)
    p, f = tableau[row, col], tableau[hit, col, None]
    # row * p - f * prow, the denominator only scaled, then in lowest terms
    block = tableau[hit] * p
    block[:, :-1] -= f * tableau[row, :-1]
    block //= np.gcd.reduce(block, axis=1)[:, None]
    tableau[hit] = block
    return tableau


def _run_phase(tableau, basis, width, iterations) -> tuple[np.ndarray, str, int]:
    """Price the objective row out against the basis, then pivot to an optimum.

    Only the first width columns may enter.  Pivoting a row on its basic
    column leaves the other rows as they are and zeroes it in the objective.
    """
    for i, bj in enumerate(basis):
        if tableau[-1, bj]:
            tableau = _pivot(tableau, basis, i, bj)
    while True:
        negative = (tableau[-1, :width] < 0).nonzero()[0]
        if not negative.size:
            return tableau, STATUS_OPTIMAL, iterations
        entering = int(negative[0])
        candidates = (tableau[:-1, entering] > 0).nonzero()[0]
        if not candidates.size:
            return tableau, STATUS_UNBOUNDED, iterations
        coeffs, rhs = tableau[candidates, entering].tolist(), tableau[candidates, -2].tolist()
        best = 0
        for k in range(1, len(coeffs)):
            here, there = rhs[k] * coeffs[best], rhs[best] * coeffs[k]
            if here < there or (here == there and basis[candidates[k]] < basis[candidates[best]]):
                best = k
        tableau = _pivot(tableau, basis, int(candidates[best]), entering)
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
    # artificials, then rhs and denominator.  A row with negative rhs is
    # negated first.  Each row starts the basis on an identity column: its
    # slack when that enters with +1, otherwise an artificial of its own.
    block, rhs, dens = _integer_rows(rows, nstruct)
    cost_line = _integer_line(costs)
    row_sign = [-1 if b < 0 else 1 for b in rhs]
    slack = [0 if s == "==" else sign if s == "<=" else -sign for (_, s, _), sign in zip(rows, row_sign)]
    ncols = nstruct + sum(1 for v in slack if v)
    total_cols = ncols + sum(1 for v in slack if v <= 0)
    top = max(int(np.abs(block).max(initial=0)), *map(abs, rhs), *dens, *map(abs, cost_line))
    tableau = np.zeros((len(rows) + 1, total_cols + 2), dtype=int_dtype(top))
    tableau[:-1, :nstruct] = block * np.array(row_sign, dtype=block.dtype)[:, None]
    tableau[:-1, -2] = [sign * b for sign, b in zip(row_sign, rhs)]
    tableau[:-1, -1] = dens
    identity_col: list[int] = []
    slack_at, art_at = nstruct, ncols
    for i, (v, den) in enumerate(zip(slack, dens)):
        if v:
            tableau[i, slack_at] = v * den
            slack_at += 1
        if v > 0:
            identity_col.append(slack_at - 1)
        else:
            tableau[i, art_at] = den
            identity_col.append(art_at)
            art_at += 1
    basis = list(identity_col)

    iterations = 0
    if total_cols > ncols:
        tableau[-1, ncols:total_cols] = tableau[-1, -1] = 1
        tableau, status, iterations = _run_phase(tableau, basis, total_cols, iterations)
        if status != STATUS_OPTIMAL:
            raise ConvergenceError(f"phase 1 ended {status}; its objective is bounded below by 0")
        if any(tableau[i, -2] > 0 for i, bj in enumerate(basis) if bj >= ncols):
            return SimplexResult(STATUS_INFEASIBLE, None, (), (), iterations)
        # Drive zero-valued artificials out; a row with no real pivot is
        # redundant and leaves the tableau.  No later pivot could change it:
        # phase 2 pivots only on structural and slack columns, where it is 0.
        for i, bj in enumerate(basis):
            if bj >= ncols:
                nonzero = tableau[i, :ncols].nonzero()[0]
                if nonzero.size:
                    tableau = _pivot(tableau, basis, i, int(nonzero[0]))
                    iterations += 1
        kept = [i for i, bj in enumerate(basis) if bj < ncols]
        tableau, basis = tableau[kept + [-1]], [basis[i] for i in kept]

    tableau[-1] = cost_line[:-1] + [0] * (total_cols - nstruct + 1) + cost_line[-1:]
    tableau, status, iterations = _run_phase(tableau, basis, ncols, iterations)
    if status == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, (), (), iterations)
    if any(bj >= ncols for bj in basis):
        raise ConvergenceError("artificial column left in the final basis")

    x = [Fraction(0)] * nstruct
    for (rhs, den), bj in zip(tableau[:-1, -2:].tolist(), basis):
        if bj < nstruct:
            x[bj] = Fraction(rhs, den)
    obj = tableau[-1].tolist()
    # The objective row's rhs is -c_B B^-1 b, and an identity column costs 0
    # in phase 2, so its reduced cost is minus the row's multiplier in c_B B^-1
    # (see the module docstring).
    objective = Fraction(-obj[-2], obj[-1])
    duals = tuple(Fraction(-sign * obj[col], obj[-1]) for sign, col in zip(row_sign, identity_col))
    return SimplexResult(STATUS_OPTIMAL, objective, tuple(x), duals, iterations)
