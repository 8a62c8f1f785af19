"""Hand-check LPs for the exact rational simplex, differential tests against
HiGHS on random small LPs, with integer and with rational rows, and the array
tableau against the list tableau of tests/list_simplex.py."""

import sys
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import list_simplex  # noqa: E402
from perfbench.jobs import _base_table  # noqa: E402
from rectbound.errors import ConvergenceError, ParameterRangeError  # noqa: E402
from rectbound.lp_bounds import build_lovasz_lp, build_search_lp, build_smooth_lp, exact, solve  # noqa: E402
from rectbound.lp_bounds.exact import (  # noqa: E402
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve_exact_lp,
)
from rectbound.truth_tables import TruthTable, family  # noqa: E402

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
    monkeypatch.setattr(exact, "_run_phase", lambda tableau, basis, width, it: (tableau, STATUS_UNBOUNDED, it))
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
    assert res == list_simplex.solve_exact_lp(costs, rows)
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


def _pivot_checking_rows(seen):
    """The pivot, recording each tableau's dtype in seen, then: every
    denominator is positive, and every row the pivot eliminated from is in
    lowest terms."""

    def pivot(tableau, basis, row, col):
        eliminated = [i for i in np.flatnonzero(tableau[:, col]).tolist() if i != row]
        seen.add(tableau.dtype)
        tableau = _PIVOT(tableau, basis, row, col)
        seen.add(tableau.dtype)
        assert all(den > 0 for den in tableau[:, -1].tolist())
        assert all(gcd(*tableau[i].tolist()) == 1 for i in eliminated)
        return tableau

    return pivot


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


def test_exact_simplex_on_fractions_and_negative_rhs_agrees_with_highs():
    # The examples with a 2^61 - 1 denominator start past the int64 bound,
    # the others stay below it: both tableau dtypes must be reached.
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(_rational_lps())
    def check(lp):
        _check_rational_lp(lp, seen)

    check()
    assert seen == {np.dtype(np.int64), np.dtype(object)}


def _check_rational_lp(lp, seen):
    costs, rows = lp
    with mock.patch.object(exact, "_pivot", _pivot_checking_rows(seen)):
        res = solve_exact_lp(costs, rows)
    assert res == list_simplex.solve_exact_lp(costs, rows)
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


# The array tableau against the list tableau it replaced (tests/list_simplex.py):
# equal objective, x, duals and pivot count, so equal values and the same
# Bland pivots, on every LP solve_full_enumeration hands over below.

# the table of the benchmark's exact-rational job list
_RANDOM_N2 = TruthTable.from_text(_base_table("exact-rational", 2))

_REFERENCE_LPS = [
    *(
        (f"{kind}-{name}-n{n}-eps{str(eps).replace('/', '_')}", partial(build, family(name, n), eps))
        for kind, build in (("smooth", build_smooth_lp), ("lovasz", build_lovasz_lp))
        for name in ("AND", "NDISJ", "DISJ", "EQ", "IP")
        for n in (1, 2)
        for eps in (F(0), F(1, 4))
    ),
    ("search-n2-k1-sigma-1", partial(build_search_lp, 2, 1, F(1))),
    ("search-n2-k1-sigma-1_2", partial(build_search_lp, 2, 1, F(1, 2))),
    ("smooth-random-n2", partial(build_smooth_lp, _RANDOM_N2, F(1, 4))),
    ("lovasz-random-n2", partial(build_lovasz_lp, _RANDOM_N2, F(1, 4))),
]


@pytest.mark.parametrize("make", [make for _, make in _REFERENCE_LPS], ids=[name for name, _ in _REFERENCE_LPS])
def test_array_tableau_equals_the_list_tableau(monkeypatch, make):
    handed = []

    def spy(costs, rows):
        handed.append((costs, rows))
        return solve_exact_lp(costs, rows)

    monkeypatch.setattr(solve, "solve_exact_lp", spy)
    solve.solve_full_enumeration(make())
    ((costs, rows),) = handed
    assert all(coeffs.dtype == np.int8 for coeffs, _, _ in rows)
    reference = list_simplex.solve_exact_lp(costs, [(coeffs.tolist(), s, b) for coeffs, s, b in rows])
    assert solve_exact_lp(costs, rows) == reference


def test_a_tableau_crossing_the_int64_bound_mid_solve_equals_the_list_tableau():
    # Entries near 2^20 start in int64; the first elimination leaves entries
    # near 2^40, so the next bound passes 2^62 and the tableau turns object.
    a, b, c, d, e, g = 1000003, 999983, 1048573, 1048571, 1000033, 1048559
    costs = [-3, -5, -4]
    rows = [([a, b, 7], "<=", c), ([5, d, e], "<=", g), ([b, 11, a], "<=", d)]
    seen = set()
    with mock.patch.object(exact, "_pivot", _pivot_checking_rows(seen)):
        res = solve_exact_lp(costs, rows)
    assert seen == {np.dtype(np.int64), np.dtype(object)}
    assert res.status == STATUS_OPTIMAL and res.iterations == 3
    assert res == list_simplex.solve_exact_lp(costs, rows)


def test_int8_rows_over_a_large_denominator_equal_the_list_tableau():
    # A 2^61 - 1 rhs denominator is scaled in Python ints (2^61 * 2^7 may pass
    # 2^62); the tableau still starts in int64 and leaves it at its first
    # elimination.
    rows = [
        (np.array([1, 0, 1], dtype=np.int8), ">=", Fraction(3, _M61)),
        (np.array([0, 1, 1], dtype=np.int8), "<=", Fraction(5, 7)),
        (np.array([1, 1, 0], dtype=np.int8), "==", Fraction(2, 3)),
    ]
    seen = set()
    with mock.patch.object(exact, "_pivot", _pivot_checking_rows(seen)):
        res = solve_exact_lp([1, 1, 1], rows)
    assert seen == {np.dtype(np.int64), np.dtype(object)}
    assert res == list_simplex.solve_exact_lp([1, 1, 1], [(a.tolist(), s, b) for a, s, b in rows])
