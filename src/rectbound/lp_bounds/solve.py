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

The column-generation master is one HiGHS model per
`solve_constraint_generation` call, built from scipy's private
`scipy.optimize._highspy._core` (scipy 1.15 and later).  Its rows enter once
with native bounds, each round appends only the fresh columns, and HiGHS
re-optimises from the previous basis.  SciPy is imported when the first
master is built, not with this module: nothing else in rectbound calls it,
and the import took 0.55 s of CPU and 47 MB of RSS on a 2-core Xeon host.

Duals follow one sign convention everywhere: `>=` rows nonnegative, `<=`
rows nonpositive, and the dual objective (rhs times dual, summed) equals the
optimum.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..caps import ENUMERATION_CELLS
from ..errors import ConvergenceError, ParameterRangeError
from ..rectangles import Rectangle, WeightMatrix
from .exact import STATUS_INFEASIBLE, STATUS_OPTIMAL, solve_exact_lp
from .model import CLASS_COVER, FAMILY_AVOID_DISJOINT, FAMILY_WITNESS, LPInstance, SENSE_GE
from .model import SENSE_LE, coverage_matrix, max_violation

SOLVER_EXACT = "exact-simplex"
SOLVER_CG = "highs-constraint-generation"

ARITH_EXACT = "exact-rational"
ARITH_FLOAT = "float-tol"

# Column generation stops once no member's dual weight exceeds 1 + CG_TOL.
CG_TOL = 1e-9

# Column generation stopped because the oracle priced a column above the bar
# that the master already holds: its duals and the oracle disagree.
STATUS_STALLED = "stalled"


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

    def check_cells(columns: int, least: str = "") -> None:
        ENUMERATION_CELLS.check(
            columns * max(1, len(lp.constraints)),
            f"LP cells ({least}{columns} columns x {len(lp.constraints)} rows)",
            "use constraint generation",
        )

    if lp.family.kind != FAMILY_AVOID_DISJOINT:
        # Every nonempty rectangle inside the largest block is a member, so
        # that count refuses an oversized LP before any member is enumerated.
        side = max((strings.bit_count() for _, strings in lp.family.blocks(lp.n)), default=0)
        check_cells((2**side - 1) ** 2, "at least ")
    members = lp.family.members(lp.n)
    check_cells(len(members))

    # Presolve: a <= row with rhs 0 pins every covering column at zero.
    cover = coverage_matrix([c.pair for c in lp.constraints], members)
    pinned = np.array([c.rhs == 0 and c.sense == SENSE_LE for c in lp.constraints], dtype=bool)
    keep = np.flatnonzero(~cover[pinned].any(axis=0))
    live_rows = np.flatnonzero(~pinned)

    live = cover[np.ix_(live_rows, keep)].astype(np.int8)
    rows = []
    for ridx, coeffs in zip(live_rows.tolist(), live):
        c = lp.constraints[ridx]
        if not coeffs.any() and c.sense == SENSE_GE and c.rhs > 0:
            return LPResult(
                status=STATUS_INFEASIBLE,
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
            solver=SOLVER_EXACT,
            arithmetic=ARITH_EXACT,
            iterations=res.iterations,
            columns=len(keep),
        )
    weights = {members[j]: v for j, v in zip(keep.tolist(), res.x) if v}
    duals = [Fraction(0)] * len(lp.constraints)
    for pos, ridx in enumerate(live_rows.tolist()):
        duals[ridx] = res.duals[pos]
    return LPResult(
        status=STATUS_OPTIMAL,
        optimum=res.objective,
        weights=weights,
        duals=tuple(duals),
        residual=max_violation(lp, weights),
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
        seeds += [Rectangle(lp.n, strings, strings) for _, strings in lp.family.blocks(lp.n)]
    return dict.fromkeys(seeds)


# SciPy's names this module uses, by the module that defines each.  `linprog`
# is not called; perfbench binds a span to it.
_SCIPY_NAMES = {
    "linprog": "scipy.optimize",
    **dict.fromkeys(
        ("HighsModelStatus", "HighsStatus", "_Highs", "kHighsInf", "simplex_constants"),
        "scipy.optimize._highspy._core",
    ),
}


def _load_scipy() -> None:
    """Bind every name of `_SCIPY_NAMES` still unset as a module global.

    A name already bound, such as a test's stand-in for `_Highs`, is kept.
    """
    namespace = globals()
    for name, module in _SCIPY_NAMES.items():
        if name not in namespace:
            namespace[name] = getattr(importlib.import_module(module), name)


def __getattr__(name: str):
    """Resolve SciPy's names on first read from outside (PEP 562)."""
    if name in _SCIPY_NAMES:
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _MasterSolution(NamedTuple):
    x: Sequence[float]
    duals: Sequence[float]
    objective: float


class _HighsMaster:
    """The master as one HiGHS model, grown in place.

    Rows enter once with their native bounds, `[rhs, inf)` for `>=` and
    `(-inf, rhs]` for `<=`, so HiGHS's row duals already keep the module's
    sign convention.  Columns are appended as CSC; each solve after the
    first starts from the previous basis, which the new columns join
    nonbasic at zero.  That basis stays primal feasible, so the model runs
    primal simplex, which continues from it directly; HiGHS's default dual
    simplex must first repair the new columns' dual infeasibility, and took
    2.3 times as long on the n=4 smooth DISJ master.  Presolve is off: every
    solve restarts from the last basis, so presolve would only reduce the
    model again each round.
    """

    def __init__(self, constraints) -> None:
        _load_scipy()
        rhs = np.array([float(c.rhs) for c in constraints])
        ge = np.array([c.sense == SENSE_GE for c in constraints])
        self.model = _Highs()
        self.model.setOptionValue("output_flag", False)
        self.model.setOptionValue(
            "simplex_strategy", int(simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)
        )
        self.model.setOptionValue("presolve", "off")
        added = self.model.addRows(
            len(rhs),
            np.where(ge, rhs, -kHighsInf),
            np.where(ge, kHighsInf, rhs),
            0,
            np.zeros(len(rhs), dtype=np.int32),
            np.zeros(0, dtype=np.int32),
            np.zeros(0),
        )
        if added == HighsStatus.kError:
            raise ConvergenceError("HiGHS refused the master's rows")

    def add(self, cover: np.ndarray) -> None:
        """Append one column per rectangle of `cover`, a pairs x rectangles `coverage_matrix`."""
        count = cover.shape[1]
        # nonzero walks the columns one by one, so its entries come in CSC order.
        col, row = np.nonzero(cover.T)
        added = self.model.addCols(
            count,
            np.ones(count),
            np.zeros(count),
            np.full(count, kHighsInf),
            len(row),
            np.searchsorted(col, np.arange(count)).astype(np.int32),
            row.astype(np.int32),
            np.ones(len(row)),
        )
        if added == HighsStatus.kError:
            raise ConvergenceError("HiGHS refused the master's new columns")

    def solve(self) -> _MasterSolution:
        """The optimal master; any other outcome raises ConvergenceError.

        The master minimises a sum of nonnegative unit-cost columns, so its
        optimum is at least 0 and an unbounded status means HiGHS failed.
        """
        self.model.run()
        status = self.model.getModelStatus()
        if status == HighsModelStatus.kInfeasible:
            raise ConvergenceError(
                "constraint-generation master is infeasible; the seed columns "
                "cannot satisfy the cover rows"
            )
        if status != HighsModelStatus.kOptimal:
            raise ConvergenceError(
                f"HiGHS returned model status {self.model.modelStatusToString(status)}"
            )
        solution = self.model.getSolution()
        objective = self.model.getInfo().objective_function_value
        return _MasterSolution(solution.col_value, solution.row_dual, objective)


def solve_constraint_generation(lp: LPInstance, max_iters: int = 1000) -> LPResult:
    """Float optimum by column generation against the exact rectangle oracle.

    The master keeps its rows across iterations, and each column is covered
    once, when it enters.  Each round prices the duals at 1 + CG_TOL and
    adds the oracle's argmax plus the other improving rectangles its sweep
    met, best first, skipping those already in the master, at most one per
    constraint row: a basis holds no more columns than the master has rows.
    The improving list is an iterator, so only the rectangles a round reads
    are built.  `iterations` counts rounds, one master solve and one oracle
    call each.

    An argmax already in the master while its value exceeds the bar means
    the master's duals and the oracle disagree beyond float noise; the run
    then stops as STATUS_STALLED, keeping its counts and `oracle_max`.
    """
    if max_iters < 1:
        raise ParameterRangeError("max_iters must be positive")
    columns = _seed_columns(lp)
    if not columns:
        return LPResult(
            status=STATUS_OPTIMAL,
            optimum=0.0,
            duals=tuple(0.0 for _ in lp.constraints),
            residual=float(max_violation(lp, {})),
            solver=SOLVER_CG,
            arithmetic=ARITH_FLOAT,
            iterations=0,
            columns=0,
        )

    pairs = [c.pair for c in lp.constraints]
    master = _HighsMaster(lp.constraints)
    master.add(coverage_matrix(pairs, list(columns)))
    for iteration in range(1, max_iters + 1):
        solution = master.solve()
        pair_weight: dict = {}
        for pair, y in zip(pairs, solution.duals):
            if y:
                pair_weight[pair] = pair_weight.get(pair, 0.0) + y
        rect, value, _witness, improving = lp.family.separation_oracle(
            WeightMatrix(lp.n, pair_weight), 1.0 + CG_TOL
        )
        oracle_max = float(value)
        if oracle_max <= 1.0 + CG_TOL:
            break
        if rect in columns:
            return LPResult(
                status=STATUS_STALLED,
                solver=SOLVER_CG,
                arithmetic=ARITH_FLOAT,
                iterations=iteration,
                columns=len(columns),
                oracle_max=oracle_max,
            )
        # The argmax leads the improving list; the rest ride along, best first.
        fresh = list(islice((r for r, _ in improving if r not in columns), len(lp.constraints)))
        columns.update(dict.fromkeys(fresh))
        master.add(coverage_matrix(pairs, fresh))
    else:
        raise ConvergenceError(f"no convergence after {max_iters} iterations")

    weights = {
        rect: float(v) for rect, v in zip(columns, solution.x) if v > 1e-12
    }
    return LPResult(
        status=STATUS_OPTIMAL,
        optimum=float(solution.objective),
        weights=weights,
        duals=tuple(solution.duals),
        residual=float(max_violation(lp, weights)),
        solver=SOLVER_CG,
        arithmetic=ARITH_FLOAT,
        iterations=iteration,
        columns=len(columns),
        oracle_max=oracle_max,
    )
