"""Frozen optima for the bound LPs, solved two independent ways.

The exact values below were computed by hand before the solvers existed:
small enough instances that the optimal covers can be exhibited directly.
"""

from fractions import Fraction

import pytest

from rectbound.errors import ConvergenceError, ParameterRangeError
from rectbound.lp_bounds import (
    CLASS_COVER,
    LPInstance,
    PairConstraint,
    apply_ambiguity_variant,
    build_lovasz_lp,
    build_search_lp,
    build_smooth_lp,
    solve_constraint_generation,
    solve_full_enumeration,
    witness_family,
)
from rectbound.combinatorics import InputPair
from rectbound.truth_tables import family

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


@pytest.mark.parametrize("label,make,expected", FROZEN, ids=[f[0] for f in FROZEN])
def test_cg_solver_matches_frozen_value(label, make, expected):
    res = solve_constraint_generation(make())
    assert res.status == "optimal"
    assert res.optimum == pytest.approx(float(expected), abs=1e-9)
    assert res.arithmetic == "float-tol"
    assert res.residual <= 1e-9


def test_exact_weights_are_feasible():
    lp = build_search_lp(2, 1, F(1))
    res = solve_full_enumeration(lp)
    for c in lp.constraints:
        cov = sum(
            w for rect, w in res.weights.items() if rect.contains(c.pair)
        )
        if c.sense == ">=":
            assert cov >= c.rhs
        elif c.sense == "<=":
            assert cov <= c.rhs
        else:
            assert cov == c.rhs


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
    with pytest.raises(ConvergenceError):
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
