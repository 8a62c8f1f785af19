"""Hand-check LPs for the exact rational simplex."""

from fractions import Fraction

import pytest

from rectbound.errors import ConvergenceError, ParameterRangeError
from rectbound.lp_bounds import exact
from rectbound.lp_bounds.exact import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve_exact_lp,
)

F = Fraction


def test_two_var_inequalities():
    res = solve_exact_lp(
        [F(1), F(1)],
        [([F(1), F(2)], ">=", F(4)), ([F(3), F(1)], ">=", F(6))],
    )
    assert res.status == STATUS_OPTIMAL
    assert res.objective == F(14, 5)
    assert res.x == (F(8, 5), F(6, 5))
    assert res.duals == (F(2, 5), F(1, 5))
    # duals reproduce the optimum through the rhs
    assert res.duals[0] * 4 + res.duals[1] * 6 == res.objective


def test_equality_and_upper_bound_mix():
    res = solve_exact_lp(
        [F(2), F(3)],
        [([F(1), F(1)], "==", F(5)), ([F(1), F(0)], "<=", F(3))],
    )
    assert res.status == STATUS_OPTIMAL
    assert res.objective == F(12)
    assert res.x == (F(3), F(2))
    # equality dual free, <= dual nonpositive
    assert res.duals == (F(3), F(-1))


def test_infeasible_detected():
    res = solve_exact_lp(
        [F(1)],
        [([F(1)], ">=", F(1)), ([F(1)], "<=", F(0))],
    )
    assert res.status == STATUS_INFEASIBLE


def test_unbounded_detected():
    res = solve_exact_lp([F(-1)], [([F(1)], ">=", F(0))])
    assert res.status == STATUS_UNBOUNDED


def test_duplicate_rows_get_zero_dual_on_the_drop():
    res = solve_exact_lp(
        [F(1)],
        [([F(1)], ">=", F(2)), ([F(1)], ">=", F(2))],
    )
    assert res.status == STATUS_OPTIMAL
    assert res.objective == F(2)
    assert sorted(res.duals) == [F(0), F(1)]
    assert res.duals[0] * 2 + res.duals[1] * 2 == res.objective


def test_negative_rhs_normalization_keeps_dual_signs():
    # -x <= -2 is x >= 2 in disguise; the <= dual stays nonpositive
    res = solve_exact_lp([F(1)], [([F(-1)], "<=", F(-2))])
    assert res.status == STATUS_OPTIMAL
    assert res.objective == F(2)
    assert res.duals == (F(-1),)
    assert res.duals[0] * F(-2) == res.objective


def test_rejects_malformed_rows():
    with pytest.raises(ParameterRangeError):
        solve_exact_lp([F(1)], [([F(1), F(1)], ">=", F(1))])
    with pytest.raises(ParameterRangeError):
        solve_exact_lp([F(1)], [([F(1)], ">", F(1))])


def test_dual_feasibility_on_a_square_system():
    costs = [F(3), F(5)]
    rows = [
        ([F(1), F(0)], "<=", F(4)),
        ([F(0), F(2)], "<=", F(12)),
        ([F(3), F(2)], "<=", F(18)),
    ]
    # all-<= minimization with nonnegative costs pins x = 0
    res = solve_exact_lp(costs, rows)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 0
    assert res.x == (F(0), F(0))
    # complementary slackness: nothing tight, duals vanish
    assert res.duals == (F(0), F(0), F(0))


def test_phase_one_failure_raises_convergence_error(monkeypatch):
    # A >= row starts on an artificial, so phase 1 runs; a phase 1 that does
    # not end optimal is a solver fault, reported as a typed error.
    monkeypatch.setattr(exact, "_run_phase", lambda tableau, obj, basis, banned, it: (STATUS_UNBOUNDED, it))
    with pytest.raises(ConvergenceError):
        solve_exact_lp([F(1)], [([F(1)], ">=", F(2))])
