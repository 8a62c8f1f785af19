"""Protocol leaves as LP columns: the route from bit counts to lower bounds."""

from fractions import Fraction

import pytest

from rectbound.errors import DimensionMismatchError
from rectbound.lp_bounds import build_search_lp, solve_full_enumeration
from rectbound.protocols import (
    TaskSpec,
    accepting_rectangle_weights,
    check_weights_against_lp,
    make_verified,
    trivial_search_kfold,
)
from rectbound.rectangles import Rectangle

F = Fraction


def _accepts_claim(output) -> bool:
    return isinstance(output, tuple) and all(isinstance(e, int) and e >= 1 for e in output)


def test_accepting_weights_of_the_trivial_searcher():
    proto = trivial_search_kfold(2, 1)
    weights = accepting_rectangle_weights(proto, _accepts_claim)
    # transcripts with a nonzero claim: x in {01, 11} answer 1, x in {10, 11}
    # answer 2, and x = 11 also answers 1 against y = 01
    assert len(weights) == 4
    assert all(w == 1 for w in weights.values())
    assert sum(weights.values()) == 4
    for rect in weights:
        for pair in rect.pairs():
            assert pair.intersection_size >= 1


def test_bridge_report_feasible_at_the_true_cost():
    lp = build_search_lp(2, 1, F(1))
    proto = trivial_search_kfold(2, 1)
    weights = accepting_rectangle_weights(proto, _accepts_claim)
    report = check_weights_against_lp(lp, weights, proto.worst_cost)
    assert report.feasible
    assert report.family_ok
    assert report.within_cap
    assert report.ok
    assert report.max_violation == 0
    assert report.total_weight == 4
    assert report.weight_cap == 2 ** proto.worst_cost
    # and the LP optimum really is below the protocol's weight total
    assert solve_full_enumeration(lp).optimum <= report.total_weight


def test_bridge_weights_survive_verification_wrapping():
    task = TaskSpec("search-kfold", 2, 1)
    wrapped = make_verified(trivial_search_kfold(2, 1), task)
    weights = accepting_rectangle_weights(wrapped, _accepts_claim)
    lp = build_search_lp(2, 1, F(1))
    report = check_weights_against_lp(lp, weights, wrapped.worst_cost)
    assert report.ok


def test_bridge_flags_infeasible_weights():
    lp = build_search_lp(2, 1, F(1))
    # a single rectangle missing most cover pairs
    rect = Rectangle(2, 1 << 0b01, 1 << 0b01)
    report = check_weights_against_lp(lp, {rect: F(1)}, cost=0)
    assert not report.feasible
    assert report.max_violation == 1  # five cover rows fully uncovered
    assert report.family_ok
    assert report.within_cap
    assert not report.ok


def test_bridge_flags_family_strays():
    lp = build_search_lp(2, 1, F(1))
    proto = trivial_search_kfold(2, 1)
    weights = dict(accepting_rectangle_weights(proto, _accepts_claim))
    # a rectangle holding a disjoint pair is outside the witness family
    stray = Rectangle(2, 1 << 0b01, 1 << 0b10)
    weights[stray] = F(1)
    report = check_weights_against_lp(lp, weights, proto.worst_cost)
    assert not report.family_ok
    assert not report.ok


def test_bridge_flags_cost_overruns():
    lp = build_search_lp(2, 1, F(1))
    proto = trivial_search_kfold(2, 1)
    weights = accepting_rectangle_weights(proto, _accepts_claim)
    report = check_weights_against_lp(lp, weights, cost=1)
    assert report.feasible
    assert not report.within_cap  # 4 > 2^1
    assert not report.ok


@pytest.mark.parametrize("n", [2, 4])
def test_bridge_refuses_rectangles_of_another_universe(n):
    # A 3-bit searcher's leaves live in universe size 3: on a smaller LP they
    # once passed as feasible, on a larger one they indexed past the rows.
    proto = make_verified(trivial_search_kfold(3, 1), TaskSpec("search-kfold", 3, 1))
    weights = accepting_rectangle_weights(proto, _accepts_claim)
    with pytest.raises(DimensionMismatchError, match=f"universe size 3, the LP in {n}"):
        check_weights_against_lp(build_search_lp(n, 1, 1), weights, proto.worst_cost)
    report = check_weights_against_lp(build_search_lp(3, 1, 1), weights, proto.worst_cost)
    assert report.feasible and report.family_ok
