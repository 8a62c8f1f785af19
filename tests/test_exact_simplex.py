"""Hand-check LPs for the exact rational simplex, and differential tests
against HiGHS on random small LPs, with integer and with rational rows."""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

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


_SENSES = st.sampled_from((">=", "<=", "=="))


@st.composite
def _small_lps(draw):
    """1-4 variables, 1-6 rows, nonnegative costs.

    Up to two rows are copies or sums of others, equations when their sources
    all are, so phase 1 meets redundant rows and drops them.  The costs stay
    nonnegative: every LP is then bounded, and HiGHS need not tell an
    unbounded LP from an infeasible one.
    """
    nvars = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars),
        _SENSES,
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )
    rows = draw(st.lists(row, min_size=1, max_size=4))
    for picks in draw(st.lists(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2), max_size=2)):
        senses = {rows[i][1] for i in picks}
        sense = senses.pop() if len(senses) == 1 else draw(_SENSES)
        coeffs = [sum(rows[i][0][j] for i in picks) for j in range(nvars)]
        rows.append((coeffs, sense, sum(rows[i][2] for i in picks)))
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    costs = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
    return costs, rows


def _highs(costs, rows):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in rows:
        if sense == "==":
            a_eq.append(coeffs)
            b_eq.append(float(rhs))
        else:
            sign = 1 if sense == "<=" else -1
            a_ub.append([sign * v for v in coeffs])
            b_ub.append(sign * float(rhs))
    return linprog(
        costs,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=(0, None),
        method="highs",
    )


@settings(max_examples=200, deadline=None)
@given(_small_lps())
def test_exact_simplex_agrees_with_highs_and_its_duals_certify(lp):
    costs, rows = lp
    res = solve_exact_lp(costs, rows)
    ref = _highs(costs, rows)
    assert ref.status in (0, 2)  # nonnegative costs: optimal or infeasible
    assert res.status == (STATUS_OPTIMAL if ref.status == 0 else STATUS_INFEASIBLE)
    if res.status != STATUS_OPTIMAL:
        return
    assert abs(float(res.objective) - ref.fun) <= 1e-9
    # the primal is feasible and attains the optimum, exactly
    assert all(v >= 0 for v in res.x)
    assert sum(c * v for c, v in zip(costs, res.x)) == res.objective
    for coeffs, sense, rhs in rows:
        lhs = sum(a * v for a, v in zip(coeffs, res.x))
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]
    # the duals certify it, exactly: y.b == optimum, A^T y <= c, signs by sense
    y = res.duals
    assert len(y) == len(rows)
    assert sum(yi * rhs for yi, (_, _, rhs) in zip(y, rows)) == res.objective
    for j, c in enumerate(costs):
        assert sum(yi * coeffs[j] for yi, (coeffs, _, _) in zip(y, rows)) <= c
    for yi, (_, sense, _) in zip(y, rows):
        assert {"<=": yi <= 0, ">=": yi >= 0, "==": True}[sense]


_M61 = 2**61 - 1
_PIVOT = exact._pivot


def _near_integers(low):
    """k + j/(2^61 - 1) for k in low..3 and j in 0..3."""
    return st.builds(lambda k, j: Fraction(k * _M61 + j, _M61), st.integers(low, 3), st.integers(0, 3))


def _pivot_checking_lines(tableau, obj, basis, row, col):
    """The pivot, then: every denominator is positive, and every line the
    pivot eliminated from is in lowest terms."""
    lines = (*tableau, obj)
    eliminated = [line for line in lines if line[col] and line is not tableau[row]]
    _PIVOT(tableau, obj, basis, row, col)
    assert all(line[-1] > 0 for line in lines)
    assert all(gcd(*line) == 1 for line in eliminated)


@st.composite
def _rational_lps(draw):
    """1-3 variables, 1-6 rows of Fractions over 3, 5 and 7, rhs of either sign.

    Up to two rows are sums of others, or their negations with the sense
    flipped, so phase 1 leaves zero-valued artificials behind and drives them
    out on negative entries.  Each row is then scaled by k + j/(2^61 - 1), k
    in 1..3: the feasible set stays that of the rows HiGHS sees, whose floats
    the factor does not move, while the exact solver sees the prime
    denominator in every cell.  Costs are k + j/(2^61 - 1), k in 0..3.
    """
    nvars = draw(st.integers(1, 3))
    frac = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 3, 5, 7)))
    row = st.tuples(
        st.lists(frac, min_size=nvars, max_size=nvars),
        _SENSES,
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 3, 5, 7))),
    )
    rows = draw(st.lists(row, min_size=1, max_size=4))
    flip = {">=": "<=", "<=": ">=", "==": "=="}
    for picks in draw(st.lists(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2), max_size=2)):
        senses = {rows[i][1] for i in picks}
        sense = senses.pop() if len(senses) == 1 else draw(_SENSES)
        coeffs = [sum(rows[i][0][j] for i in picks) for j in range(nvars)]
        rhs = sum(rows[i][2] for i in picks)
        if draw(st.booleans()):
            coeffs, sense, rhs = [-v for v in coeffs], flip[sense], -rhs
        rows.append((coeffs, sense, rhs))
    scales = draw(st.lists(_near_integers(1), min_size=len(rows), max_size=len(rows)))
    rows = [([s * v for v in coeffs], sense, s * rhs) for (coeffs, sense, rhs), s in zip(rows, scales)]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return draw(st.lists(_near_integers(0), min_size=nvars, max_size=nvars)), rows


@settings(max_examples=200, deadline=None)
@given(_rational_lps())
def test_exact_simplex_on_fractions_and_negative_rhs_agrees_with_highs(lp):
    costs, rows = lp
    with mock.patch.object(exact, "_pivot", _pivot_checking_lines):
        res = solve_exact_lp(costs, rows)
    ref = _highs([float(c) for c in costs], [([float(v) for v in a], s, b) for a, s, b in rows])
    assert ref.status in (0, 2)
    assert res.status == (STATUS_OPTIMAL if ref.status == 0 else STATUS_INFEASIBLE)
    if res.status != STATUS_OPTIMAL:
        return
    assert abs(float(res.objective) - ref.fun) <= 1e-9
    assert all(type(v) is Fraction for v in (res.objective, *res.x, *res.duals))
    assert all(v >= 0 for v in res.x)
    assert sum(c * v for c, v in zip(costs, res.x)) == res.objective
    for coeffs, sense, rhs in rows:
        lhs = sum(a * v for a, v in zip(coeffs, res.x))
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]
    y = res.duals
    assert sum(yi * rhs for yi, (_, _, rhs) in zip(y, rows)) == res.objective
    for j, c in enumerate(costs):
        assert sum(yi * coeffs[j] for yi, (coeffs, _, _) in zip(y, rows)) <= c
    for yi, (_, sense, _) in zip(y, rows):
        assert {"<=": yi <= 0, ">=": yi >= 0, "==": True}[sense]
