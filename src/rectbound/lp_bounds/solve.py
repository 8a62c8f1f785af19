"""Solvers for rectangle LPs.

Two paths with one result type:

* `solve_full_enumeration` instantiates every family member as a column and
  runs the exact rational simplex.  Only viable for tiny universes, and used
  as the ground truth.
* `solve_constraint_generation` keeps a small working set of columns, solves
  the float master with HiGHS, prices the rest of the family with the exact
  max-weight rectangle oracle, and stops once no column's dual weight exceeds
  its unit cost beyond the tolerance.  Pricing is multi-column: the oracle's
  one sweep also yields every rectangle whose dual weight exceeds that bar,
  and each round adds them, best first, up to one per master row.

Duals follow one sign convention everywhere: `>=` rows nonnegative, `<=`
rows nonpositive, and the dual objective (rhs times dual, summed) equals the
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .model import CLASS_COVER, FAMILY_WITNESS, LPInstance, SENSE_GE, SENSE_LE
from .model import covering_columns, max_violation

SOLVER_EXACT = "exact-simplex"
SOLVER_CG = "highs-constraint-generation"

ARITH_EXACT = "exact-rational"
ARITH_FLOAT = "float-tol"

# Column generation stops once no member's dual weight exceeds 1 + CG_TOL.
CG_TOL = 1e-9


@dataclass(frozen=True)
class LPResult:
    status: str
    solver: str
    arithmetic: str
    iterations: int
    columns: int
    optimum: Fraction | float | None = None
    weights: Mapping[Rectangle, Fraction | float] = field(default_factory=dict)
    duals: tuple = ()
    residual: Fraction | float | None = None
    oracle_max: float | None = None


def solve_full_enumeration(lp: LPInstance) -> LPResult:
    """Exact optimum over the explicitly enumerated rectangle family."""
    members = lp.family.members(lp.n)
    ENUMERATION_CELLS.check(
        len(members) * max(1, len(lp.constraints)),
        f"LP cells ({len(members)} columns x {len(lp.constraints)} rows)",
        "use constraint generation",
    )

    # Presolve: a <= row with rhs 0 pins every covering column at zero.
    covers = covering_columns([c.pair for c in lp.constraints], members)
    pinned = [c.rhs == 0 and c.sense == SENSE_LE for c in lp.constraints]
    banned = {j for pin, cover in zip(pinned, covers) if pin for j in cover}
    keep = [j for j in range(len(members)) if j not in banned]
    position = {j: pos for pos, j in enumerate(keep)}
    live_rows = [ridx for ridx, pin in enumerate(pinned) if not pin]

    rows = []
    for ridx in live_rows:
        c = lp.constraints[ridx]
        cover = [position[j] for j in covers[ridx] if j in position]
        if not cover and c.sense == SENSE_GE and c.rhs > 0:
            return LPResult(
                status=STATUS_INFEASIBLE,
                solver=SOLVER_EXACT,
                arithmetic=ARITH_EXACT,
                iterations=0,
                columns=len(keep),
            )
        coeffs = [0] * len(keep)
        for pos in cover:
            coeffs[pos] = 1
        rows.append((coeffs, c.sense, c.rhs))

    res = solve_exact_lp([1] * len(keep), rows)
    if res.status != STATUS_OPTIMAL:
        return LPResult(
            status=res.status,
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
        Rectangle(lp.n, 1 << c.pair.x, 1 << c.pair.y)
        for c in lp.constraints
        if c.klass == CLASS_COVER
    ]
    if lp.family.kind == FAMILY_WITNESS:
        witnesses = witness_sets(lp.n, lp.family.k or 0)
        seeds += [Rectangle(lp.n, w.strings, w.strings) for w in witnesses]
    return dict.fromkeys(seeds)


def solve_constraint_generation(lp: LPInstance, max_iters: int = 1000) -> LPResult:
    """Float optimum by column generation against the exact rectangle oracle.

    The master keeps its rows across iterations.  HiGHS takes `<=` rows only,
    so every row gets a sign once (-1 for `>=`, +1 for `<=`), and each column
    is covered and signed once, when it enters.

    Each round prices the duals at 1 + CG_TOL and adds the oracle's argmax
    plus the other improving rectangles its sweep met, best first, skipping
    those already in the master, at most one per constraint row: a basis
    holds no more columns than the master has rows.  `iterations` counts
    rounds, one HiGHS solve and one oracle call each.
    """
    if max_iters < 1:
        raise ParameterRangeError("max_iters must be positive")
    columns = _seed_columns(lp)
    if not columns:
        return LPResult(
            status=STATUS_OPTIMAL,
            optimum=0.0,
            duals=tuple(0.0 for _ in lp.constraints),
            residual=max_violation(lp, {}, 0.0),
            solver=SOLVER_CG,
            arithmetic=ARITH_FLOAT,
            iterations=0,
            columns=0,
        )

    pairs = [c.pair for c in lp.constraints]
    sign = np.array([-1.0 if c.sense == SENSE_GE else 1.0 for c in lp.constraints])
    b_ub = sign * np.array([float(c.rhs) for c in lp.constraints])

    def signed_columns(rects: list[Rectangle]) -> list[np.ndarray]:
        cover = np.zeros((len(rects), len(pairs)))
        for ridx, cols in enumerate(covering_columns(pairs, rects)):
            cover[cols, ridx] = 1.0
        return list(cover * sign)

    master = signed_columns(list(columns))
    for iteration in range(1, max_iters + 1):
        res = linprog(
            c=np.ones(len(master)),
            A_ub=np.column_stack(master),
            b_ub=b_ub,
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
                solver=SOLVER_CG,
                arithmetic=ARITH_FLOAT,
                iterations=iteration,
                columns=len(columns),
            )
        if res.status != 0:
            raise ConvergenceError(f"HiGHS returned status {res.status}: {res.message}")

        duals = (sign * res.ineqlin.marginals).tolist()
        pair_weight: dict = {}
        for pair, y in zip(pairs, duals):
            if y:
                pair_weight[pair] = pair_weight.get(pair, 0.0) + y
        rect, value, _witness, improving = lp.family.separation_oracle(
            WeightMatrix(lp.n, pair_weight), 1.0 + CG_TOL
        )
        oracle_max = float(value)
        if oracle_max <= 1.0 + CG_TOL:
            break
        if rect in columns:
            # Float noise: the priced column is already in the master.
            break
        # The argmax leads the improving list; the rest ride along, best first.
        fresh = [r for r, _ in improving if r not in columns][: len(lp.constraints)]
        columns.update(dict.fromkeys(fresh))
        master += signed_columns(fresh)
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
