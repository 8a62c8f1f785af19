"""Frozen optima for the bound LPs, solved two independent ways.

The exact values below were computed by hand before the solvers existed:
small enough instances that the optimal covers can be exhibited directly.
"""

import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rectbound.cli import main
from rectbound.errors import ConvergenceError, ParameterRangeError
from rectbound.lp_bounds import (
    CLASS_COVER,
    LPInstance,
    PairConstraint,
    RectangleFamily,
    apply_ambiguity_variant,
    build_lovasz_lp,
    build_search_lp,
    build_smooth_lp,
    solve_constraint_generation,
    solve_full_enumeration,
    witness_family,
)
from rectbound.combinatorics import InputPair
from rectbound.lp_bounds import solve
from rectbound.rectangles import Rectangle
from rectbound.truth_tables import TruthTable, family

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.jobs import _base_table  # noqa: E402

F = Fraction

# (label, instance builder, exact optimum) frozen before any solver ran
FROZEN = [
    ("and-1", lambda: build_lovasz_lp(family("AND", 1), F(0)), F(1)),
    ("eq-2", lambda: build_lovasz_lp(family("EQ", 2), F(0)), F(4)),
    ("ndisj-2-lovasz", lambda: build_lovasz_lp(family("NDISJ", 2), F(0)), F(2)),
    ("ndisj-2-smooth", lambda: build_smooth_lp(family("NDISJ", 2), F(0)), F(5, 2)),
    ("ndisj-1-eps", lambda: build_lovasz_lp(family("NDISJ", 1), F(1, 4)), F(3, 4)),
    ("search-2-1", lambda: build_search_lp(2, 1, F(1)), F(3)),
    (
        "search-2-1-ambig",
        lambda: apply_ambiguity_variant(build_search_lp(2, 1, F(1)), F(1), 1),
        F(2),
    ),
]


@pytest.mark.parametrize("label,make,expected", FROZEN, ids=[f[0] for f in FROZEN])
def test_exact_solver_matches_frozen_value(label, make, expected):
    res = solve_full_enumeration(make())
    assert res.status == "optimal"
    assert res.optimum == expected
    assert res.arithmetic == "exact-rational"
    # strong duality holds in exact arithmetic
    lp = make()
    dual_value = sum(y * c.rhs for y, c in zip(res.duals, lp.constraints))
    assert dual_value == expected


@pytest.mark.parametrize("name,optimum,pivots", [("IP", F(7, 4), 153), ("DISJ", F(8, 5), 83)])
def test_exact_simplex_pivot_count_is_pinned(name, optimum, pivots):
    # Bland's rule makes the pivot sequence a function of the arithmetic
    # alone; a change to either shows here as a different count.
    res = solve_full_enumeration(build_smooth_lp(family(name, 2), F(1, 4)))
    assert res.optimum == optimum
    assert res.iterations == pivots


@pytest.mark.parametrize("label,make,expected", FROZEN, ids=[f[0] for f in FROZEN])
def test_cg_solver_matches_frozen_value(label, make, expected):
    res = solve_constraint_generation(make())
    assert res.status == "optimal"
    assert res.optimum == pytest.approx(float(expected), abs=1e-9)
    assert res.arithmetic == "float-tol"
    assert res.residual <= 1e-9


CG_DUAL_CASES = [
    *((label, make) for label, make, _ in FROZEN),
    ("smooth-disj-3", lambda: build_smooth_lp(family("DISJ", 3), F(1, 4))),
    ("search-3-1-half", lambda: build_search_lp(3, 1, F(1, 2))),
]


@pytest.mark.parametrize("label,make", CG_DUAL_CASES, ids=[c[0] for c in CG_DUAL_CASES])
def test_cg_duals_keep_the_sign_convention_and_strong_duality(label, make):
    lp = make()
    res = solve_constraint_generation(lp)
    assert res.status == "optimal"
    assert len(res.duals) == len(lp.constraints)
    for y, c in zip(res.duals, lp.constraints):
        assert y >= 0 if c.sense == ">=" else y <= 0, c.describe()
    dual_value = sum(y * float(c.rhs) for y, c in zip(res.duals, lp.constraints))
    assert abs(dual_value - res.optimum) <= 1e-9


def test_cg_search_lp_n4_k1_matches_the_frontier_value():
    # A float value pinned from single-column CG, close to 485/57 but not
    # claimed exact: the pricing rule may change the path, not the optimum.
    res = solve_constraint_generation(build_search_lp(4, 1, F(1)))
    assert res.status == "optimal"
    assert abs(res.optimum - 8.508771929824556) <= 1e-9
    assert res.oracle_max <= 1.0 + 1e-9


def test_exact_weights_are_feasible():
    lp = build_search_lp(2, 1, F(1))
    res = solve_full_enumeration(lp)
    for c in lp.constraints:
        cov = sum(
            w for rect, w in res.weights.items() if rect.contains(c.pair)
        )
        if c.sense == ">=":
            assert cov >= c.rhs
        else:
            assert c.sense == "<="
            assert cov <= c.rhs


def test_infeasible_instance_detected_both_ways():
    # two rows on the same pair that no weight assignment satisfies
    pair = InputPair.from_bits("1", "1")
    rows = (
        PairConstraint(pair, ">=", F(2), CLASS_COVER),
        PairConstraint(pair, "<=", F(1), "partition"),
    )
    lp = LPInstance("search", 1, witness_family(1), rows, {"k": 1, "sigma": F(1)})
    exact = solve_full_enumeration(lp)
    assert exact.status == "infeasible"
    assert exact.optimum is None
    with pytest.raises(ConvergenceError, match="seed columns cannot satisfy the cover rows"):
        solve_constraint_generation(lp)


def test_cg_rejects_bad_iteration_budget():
    lp = build_search_lp(2, 1, F(1))
    with pytest.raises(ParameterRangeError):
        solve_constraint_generation(lp, max_iters=0)


def test_cg_reports_oracle_certificate():
    res = solve_constraint_generation(build_search_lp(2, 1, F(1)))
    # final oracle sweep found nothing above the duals' bar
    assert res.oracle_max is not None
    assert res.oracle_max <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "make",
    [
        # sigma 0: the master's optimum is 0, so no column keeps any weight.
        pytest.param(lambda: build_search_lp(4, 1, F(0)), id="search-4-1-sigma-0"),
        # No 1-pair: no cover row, so no seed column and no master at all.
        pytest.param(
            lambda: build_lovasz_lp(TruthTable.from_function(4, lambda x, y: 0), F(0)), id="lovasz-zero-4"
        ),
    ],
)
def test_cg_with_no_weighted_column_reports_a_zero_residual_at_n4(make):
    res = solve_constraint_generation(make())
    assert res.status == "optimal"
    assert res.optimum == 0.0
    assert res.weights == {}
    assert res.residual == 0.0


def test_cg_grows_one_highs_model_by_the_fresh_columns_only(monkeypatch):
    built, appended = [], []

    class Counting(solve._Highs):
        def __init__(self):
            super().__init__()
            built.append(self)

        def addCols(self, count, *rest):
            appended.append(count)
            return super().addCols(count, *rest)

    monkeypatch.setattr(solve, "_Highs", Counting)
    res = solve_constraint_generation(build_smooth_lp(family("DISJ", 3), F(1, 4)))
    assert res.status == "optimal"
    assert len(built) == 1
    # The seed columns, then one batch per round but the last; no column twice.
    assert len(appended) == res.iterations
    assert sum(appended) == res.columns == built[0].getNumCol()


def test_cg_reports_any_other_master_status_as_a_convergence_error(monkeypatch):
    # An unbounded master cannot occur (nonnegative unit-cost columns), so it
    # and every status short of optimal raise, naming the status.
    statuses = iter([solve.HighsModelStatus.kIterationLimit, solve.HighsModelStatus.kUnbounded])

    class Failing(solve._Highs):
        def getModelStatus(self):
            return next(statuses)

    monkeypatch.setattr(solve, "_Highs", Failing)
    lp = build_search_lp(2, 1, F(1))
    for name in ("Iteration limit reached", "Unbounded"):
        with pytest.raises(ConvergenceError, match=f"model status {name}$"):
            solve_constraint_generation(lp)


# The n=3 CG optima at eps 1/4.  Every smooth value, Lovász NDISJ and search
# at sigma 1 are exact optima, found by the certified-bound and exact smooth-LP
# prototypes (ROADMAP items 2 and 3).  The other four (Lovász IP, DISJ and EQ,
# search at sigma 1/2) are only the float values that the HiGHS and linprog
# masters both reached, within 1e-9; no exact solve has confirmed them.
N3_OPTIMA = [
    ("smooth-ip-3", lambda: build_smooth_lp(family("IP", 3), F(1, 4)), F(49, 16)),
    ("smooth-disj-3", lambda: build_smooth_lp(family("DISJ", 3), F(1, 4)), F(21, 10)),
    ("smooth-ndisj-3", lambda: build_smooth_lp(family("NDISJ", 3), F(1, 4)), F(106, 57)),
    ("smooth-eq-3", lambda: build_smooth_lp(family("EQ", 3), F(1, 4)), F(11, 6)),
    ("lovasz-ip-3", lambda: build_lovasz_lp(family("IP", 3), F(1, 4)), F(49, 16)),
    ("lovasz-disj-3", lambda: build_lovasz_lp(family("DISJ", 3), F(1, 4)), F(33, 16)),
    ("lovasz-ndisj-3", lambda: build_lovasz_lp(family("NDISJ", 3), F(1, 4)), F(7, 4)),
    ("lovasz-eq-3", lambda: build_lovasz_lp(family("EQ", 3), F(1, 4)), F(11, 6)),
    ("search-3-1", lambda: build_search_lp(3, 1, F(1)), F(31, 6)),
    ("search-3-1-half", lambda: build_search_lp(3, 1, F(1, 2)), F(2)),
]


@pytest.mark.parametrize("label,make,expected", N3_OPTIMA, ids=[c[0] for c in N3_OPTIMA])
def test_cg_n3_optima_are_pinned(label, make, expected):
    res = solve_constraint_generation(make())
    assert res.status == "optimal"
    assert abs(res.optimum - float(expected)) <= 1e-9
    assert res.oracle_max <= 1.0 + 1e-9


def test_cg_stalls_when_the_priced_column_is_already_in_the_master(monkeypatch, capsys):
    lp = build_search_lp(2, 1, F(1))
    cover = next(c for c in lp.constraints if c.klass == CLASS_COVER)
    in_master = Rectangle(lp.n, 1 << cover.pair.x, 1 << cover.pair.y)
    value = 1.0 + 1e-6

    def stale_oracle(self, w, above=None):
        return in_master, value, None, [(in_master, value)]

    monkeypatch.setattr(RectangleFamily, "separation_oracle", stale_oracle)
    res = solve_constraint_generation(lp)
    assert res.status == "stalled"
    assert (res.iterations, res.oracle_max) == (1, value)
    assert res.columns > 0
    assert main(["bound", "--lp", "search", "--n", "2", "--k", "1", "--solver", "cg"]) == 2
    assert '"status": "stalled"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, k, n",
    [("full", None, 1), ("full", None, 2)]
    + [("witness", k, n) for n in (1, 2, 3) for k in range(n + 1)],
)
def test_largest_block_never_overcounts_the_members(kind, k, n):
    # The exact solver refuses on (2^s - 1)^2 columns, s the largest block's
    # string count, before enumerating; that must not exceed the member count,
    # so no LP that fits the cells limit is refused early.
    fam = RectangleFamily(kind, k)
    side = max(strings.bit_count() for _, strings in fam.blocks(n))
    members = len(fam.members(n))
    assert (2**side - 1) ** 2 <= members
    if kind == "full":
        assert (2**side - 1) ** 2 == members


# The smooth LP is the Lovász LP's rows plus caps, over the same pairs and
# family, so the smooth optimum's support is a feasible start for the Lovász
# master, as `bound --lp smooth` seeds it.  The start may save rounds but must
# not move the optimum or weaken the run's own certificate.
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda name=name: family(name, 3), id=f"{name.lower()}-3")
        for name in ("IP", "DISJ", "NDISJ", "EQ")
    ]
    + [pytest.param(lambda: TruthTable.from_text(_base_table("cg-n3", 3)), id="random-3")],
)
def test_cg_lovasz_seeded_from_the_smooth_support_keeps_its_optimum(make):
    table = make()
    smooth = solve_constraint_generation(build_smooth_lp(table, F(1, 4)))
    cold = solve_constraint_generation(build_lovasz_lp(table, F(1, 4)))
    seeded = solve_constraint_generation(build_lovasz_lp(table, F(1, 4)), start=smooth.weights)
    assert smooth.status == cold.status == seeded.status == "optimal"
    assert smooth.weights
    assert abs(seeded.optimum - cold.optimum) <= 1e-9
    assert seeded.oracle_max <= 1.0 + 1e-9
    assert seeded.residual <= 1e-9


def test_cg_refuses_a_start_column_outside_the_lp_by_name_before_any_master(monkeypatch):
    built = []

    class Counting(solve._Highs):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(solve, "_Highs", Counting)
    lovasz = build_lovasz_lp(family("DISJ", 3), F(1, 4))
    search = build_search_lp(3, 1, F(1))
    # Strings 001 and 010 mark no common coordinate: no size-1 witness.
    no_witness = Rectangle(3, 1 << 0b001, 1 << 0b010)
    member = Rectangle(3, 1 << 0b011, 1 << 0b001)
    for lp, bad in [(lovasz, Rectangle.full(2)), (search, no_witness), (lovasz, Rectangle.empty(3))]:
        with pytest.raises(ParameterRangeError, match=re.escape(repr(bad))):
            solve_constraint_generation(lp, start=[member, bad])
    assert built == []
