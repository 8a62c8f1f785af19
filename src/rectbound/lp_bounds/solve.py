"""Solvers for rectangle LPs.

Two paths with one result type:

* `solve_full_enumeration` instantiates every family member as a column and
  runs the exact rational simplex.  Only viable for tiny universes, and used
  as the ground truth.
* `solve_constraint_generation` keeps a small working set of columns, solves
  the float master with HiGHS, prices the rest of the family with the exact
  max-weight rectangle oracle, and stops once no column's dual weight exceeds
  its unit cost beyond the tolerance.

Duals follow one sign convention everywhere: `>=` rows nonnegative, `<=`
rows nonpositive, `==` rows free, and the dual objective (rhs times dual,
summed) equals the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from ..caps import ENUMERATION_CELLS
from ..errors import ConvergenceError, ParameterRangeError
from ..rectangles import Rectangle, WeightMatrix, witness_sets
from .exact import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve_exact_lp,
)
from .model import CLASS_COVER, FAMILY_WITNESS, LPInstance, SENSE_EQ, SENSE_GE, SENSE_LE
from .model import covering_columns, max_violation

SOLVER_EXACT = "exact-simplex"
SOLVER_CG = "highs-constraint-generation"

ARITH_EXACT = "exact-rational"
ARITH_FLOAT = "float-tol"


@dataclass(frozen=True)
class LPResult:
    status: str
    optimum: Fraction | float | None
    weights: Mapping[Rectangle, Fraction | float]
    duals: tuple
    residual: Fraction | float | None
    solver: str
    arithmetic: str
    iterations: int
    columns: int
    oracle_max: float | None = None


def solve_full_enumeration(lp: LPInstance) -> LPResult:
    """Exact optimum over the explicitly enumerated rectangle family."""
    members = lp.family.members(lp.n)
    ENUMERATION_CELLS.check(
        len(members) * max(1, len(lp.constraints)),
        f"LP cells ({len(members)} columns x {len(lp.constraints)} rows)",
        "use constraint generation",
    )

    # Presolve: a <= or == row with rhs 0 pins every covering column at zero.
    pinned = [c.rhs == 0 and c.sense in (SENSE_LE, SENSE_EQ) for c in lp.constraints]
    pairs = [c.pair for c in lp.constraints]
    banned = {j for pin, cover in zip(pinned, covering_columns(pairs, members)) if pin for j in cover}
    keep = [j for j in range(len(members)) if j not in banned]
    live_rows = [ridx for ridx, pin in enumerate(pinned) if not pin]

    rows = []
    live_cover = covering_columns([pairs[ridx] for ridx in live_rows], [members[j] for j in keep])
    for ridx, cover in zip(live_rows, live_cover):
        c = lp.constraints[ridx]
        coeffs = [0] * len(keep)
        for pos in cover:
            coeffs[pos] = 1
        if not cover and c.sense == SENSE_GE and c.rhs > 0:
            return LPResult(
                status=STATUS_INFEASIBLE,
                optimum=None,
                weights={},
                duals=(),
                residual=None,
                solver=SOLVER_EXACT,
                arithmetic=ARITH_EXACT,
                iterations=0,
                columns=len(keep),
            )
        rows.append((coeffs, c.sense, c.rhs))

    res = solve_exact_lp([1] * len(keep), rows)
    if res.status != STATUS_OPTIMAL:
        return LPResult(
            status=res.status,
            optimum=None,
            weights={},
            duals=(),
            residual=None,
            solver=SOLVER_EXACT,
            arithmetic=ARITH_EXACT,
            iterations=res.iterations,
            columns=len(keep),
        )
    weights = {members[j]: v for j, v in zip(keep, res.x) if v}
    duals = [Fraction(0)] * len(lp.constraints)
    for pos, ridx in enumerate(live_rows):
        duals[ridx] = res.duals[pos]
    return LPResult(
        status=STATUS_OPTIMAL,
        optimum=res.objective,
        weights=weights,
        duals=tuple(duals),
        residual=max_violation(lp, weights, Fraction(0)),
        solver=SOLVER_EXACT,
        arithmetic=ARITH_EXACT,
        iterations=res.iterations,
        columns=len(keep),
    )


def _seed_columns(lp: LPInstance) -> dict[Rectangle, None]:
    """The first master columns, in first-seen order.

    One 1x1 rectangle per cover pair, then, over the witness family, the
    rectangle of all strings marking each witness on both sides.
    """
    seeds = [
        Rectangle(lp.n, 1 << c.pair.x.mask, 1 << c.pair.y.mask)
        for c in lp.constraints
        if c.klass == CLASS_COVER
    ]
    if lp.family.kind == FAMILY_WITNESS:
        witnesses = witness_sets(lp.n, lp.family.k or 0)
        seeds += [Rectangle(lp.n, w.strings, w.strings) for w in witnesses]
    return dict.fromkeys(seeds)


def _master_rows(lp: LPInstance, columns: list[Rectangle]):
    """The master's 0/1 coverage matrix: <= rows (>= rows negated) and == rows."""
    cover = np.zeros((len(lp.constraints), len(columns)))
    for ridx, cols in enumerate(covering_columns([c.pair for c in lp.constraints], columns)):
        cover[ridx, cols] = 1.0
    ub_rows = [ridx for ridx, c in enumerate(lp.constraints) if c.sense != SENSE_EQ]
    eq_rows = [ridx for ridx, c in enumerate(lp.constraints) if c.sense == SENSE_EQ]
    sign = np.array([-1.0 if lp.constraints[ridx].sense == SENSE_GE else 1.0 for ridx in ub_rows])
    b_ub = sign * np.array([float(lp.constraints[ridx].rhs) for ridx in ub_rows])
    b_eq = np.array([float(lp.constraints[ridx].rhs) for ridx in eq_rows])
    return sign[:, None] * cover[ub_rows], b_ub, ub_rows, cover[eq_rows], b_eq, eq_rows


def solve_constraint_generation(
    lp: LPInstance,
    tol: float = 1e-9,
    max_iters: int = 1000,
) -> LPResult:
    """Float optimum by column generation against the exact rectangle oracle."""
    if max_iters < 1:
        raise ParameterRangeError("max_iters must be positive")
    columns = _seed_columns(lp)
    if not columns:
        return LPResult(
            status=STATUS_OPTIMAL,
            optimum=0.0,
            weights={},
            duals=tuple(0.0 for _ in lp.constraints),
            residual=max_violation(lp, {}, 0.0),
            solver=SOLVER_CG,
            arithmetic=ARITH_FLOAT,
            iterations=0,
            columns=0,
            oracle_max=None,
        )

    res = None
    duals = [0.0] * len(lp.constraints)
    oracle_max = None
    for iteration in range(1, max_iters + 1):
        a_ub, b_ub, ub_rows, a_eq, b_eq, eq_rows = _master_rows(lp, list(columns))
        res = linprog(
            c=np.ones(len(columns)),
            A_ub=a_ub if ub_rows else None,
            b_ub=b_ub if ub_rows else None,
            A_eq=a_eq if eq_rows else None,
            b_eq=b_eq if eq_rows else None,
            bounds=(0, None),
            method="highs",
        )
        if res.status == 2:
            raise ConvergenceError(
                "constraint-generation master is infeasible; the seed columns "
                "cannot satisfy the cover rows"
            )
        if res.status == 3:
            return LPResult(
                status=STATUS_UNBOUNDED,
                optimum=None,
                weights={},
                duals=(),
                residual=None,
                solver=SOLVER_CG,
                arithmetic=ARITH_FLOAT,
                iterations=iteration,
                columns=len(columns),
                oracle_max=None,
            )
        if res.status != 0:
            raise ConvergenceError(f"HiGHS returned status {res.status}: {res.message}")

        duals = [0.0] * len(lp.constraints)
        for pos, ridx in enumerate(ub_rows):
            lam = float(res.ineqlin.marginals[pos])
            duals[ridx] = -lam if lp.constraints[ridx].sense == SENSE_GE else lam
        for pos, ridx in enumerate(eq_rows):
            duals[ridx] = float(res.eqlin.marginals[pos])

        pair_weight: dict = {}
        for ridx, c in enumerate(lp.constraints):
            if duals[ridx]:
                pair_weight[c.pair] = pair_weight.get(c.pair, 0.0) + duals[ridx]
        w = WeightMatrix(lp.n, pair_weight)
        rect, value, _witness = lp.family.separation_oracle(w)
        oracle_max = float(value)
        if oracle_max <= 1.0 + tol:
            break
        if rect in columns:
            # Float noise: the priced column is already in the master.
            break
        columns[rect] = None
    else:
        raise ConvergenceError(f"no convergence after {max_iters} iterations")

    weights = {
        rect: float(v) for rect, v in zip(columns, res.x) if v > 1e-12
    }
    return LPResult(
        status=STATUS_OPTIMAL,
        optimum=float(res.fun),
        weights=weights,
        duals=tuple(duals),
        residual=float(max_violation(lp, weights, 0.0)),
        solver=SOLVER_CG,
        arithmetic=ARITH_FLOAT,
        iterations=iteration,
        columns=len(columns),
        oracle_max=oracle_max,
    )
