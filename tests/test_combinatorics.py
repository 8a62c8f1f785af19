"""Distribution layer: point masses, supports, lifting identities."""

from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbound import combinatorics
from rectbound.combinatorics import (
    LIFTING_IDENTITIES,
    InputPair,
    MuParams,
    binom,
    bits,
    check_lemma4,
    enumerate_support,
    identity_sides,
    intersection_ratio,
    mu_prob,
    parse_bits,
    remove_coords,
    sample_mu,
    valid_mu_params,
)
from rectbound.errors import DimensionMismatchError, ParameterRangeError, SupportEmptyError


def test_binom_matches_hand_values():
    assert binom(0, 0) == 1
    assert binom(5, 2) == 10
    assert binom(6, 3) == 20
    assert binom(4, 7) == 0  # k > n convention
    with pytest.raises(ParameterRangeError):
        binom(-1, 0)
    with pytest.raises(ParameterRangeError):
        binom(3, -2)


def test_bitstring_coordinates_are_one_based_low_bits():
    assert parse_bits("1010") == 0b101  # coordinates 1 and 3
    assert parse_bits("110") == 0b011
    assert bits(0b011, 3) == "110"
    assert bits(0, 0) == "" and parse_bits("") == 0
    for n in range(5):
        assert [parse_bits(bits(mask, n)) for mask in range(1 << n)] == list(range(1 << n))


def test_bitstring_rejects_out_of_range():
    with pytest.raises(ParameterRangeError):
        parse_bits("102")
    with pytest.raises(DimensionMismatchError):
        InputPair.from_bits("10", "1")
    with pytest.raises(DimensionMismatchError):
        mu_prob(MuParams(1, 4, 2), InputPair(0b10011, 0b00101))  # x marks coordinate 5
    with pytest.raises(DimensionMismatchError):
        mu_prob(MuParams(1, 4, 2), InputPair(0b0011, -1))


def test_input_pair_intersection():
    p = InputPair.from_bits("1100", "0110")
    assert p == (0b0011, 0b0110) and hash(p) == hash((0b0011, 0b0110))
    assert p.intersection_size == 1
    assert p.fits(3) and not p.fits(2)


def test_support_size_closed_form():
    # C(4,2) * C(2,1) * C(2,1) placements
    p = MuParams(1, 4, 2)
    assert p.support_size == 24
    assert p.point_mass() == Fraction(1, 24)
    assert len(list(enumerate_support(p))) == 24


def test_empty_supports_raise():
    assert MuParams(3, 4, 2).is_empty  # k > m
    assert MuParams(0, 4, 3).is_empty  # two disjoint 3-sets need n >= 6
    with pytest.raises(SupportEmptyError):
        MuParams(3, 4, 2).validate()
    with pytest.raises(SupportEmptyError):
        MuParams(3, 4, 2).point_mass()
    assert list(enumerate_support(MuParams(3, 4, 2))) == []


def test_mu_prob_is_point_mass_on_support_zero_off():
    p = MuParams(1, 4, 2)
    on = InputPair.from_bits("1100", "1010")
    off = InputPair.from_bits("1100", "0011")  # disjoint, not meet 1
    assert mu_prob(p, on) == Fraction(1, 24)
    assert mu_prob(p, off) == 0


def test_contains_tests_sizes_and_refuses_pairs_outside_the_universe():
    p = MuParams(1, 4, 2)
    assert p.contains(0b0011, 0b0101)
    assert not p.contains(0b0011, 0b1100)  # meet 0
    assert not p.contains(0b0111, 0b0101)  # |x| = 3
    for x, y in ((0b10011, 0b00101), (0b0011, -1)):
        with pytest.raises(DimensionMismatchError):
            p.contains(x, y)
    assert [pair for pair in enumerate_support(p) if p.contains(*pair)] == enumerate_support(p)
    assert sum(p.contains(x, y) for x in range(16) for y in range(16)) == p.support_size


def test_point_mass_is_built_once_per_instance():
    p = MuParams(1, 4, 2)
    assert p.point_mass() is p.point_mass()
    assert MuParams(1, 4, 2).point_mass() == p.point_mass()


def test_enumerate_support_is_deterministic():
    p = MuParams(1, 5, 2)
    assert list(enumerate_support(p)) == list(enumerate_support(p))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_normalization_property(n, m, k):
    if m > n or k > m:
        return
    p = MuParams(k, n, m)
    if p.is_empty:
        return
    total = sum(mu_prob(p, pair) for pair in enumerate_support(p))
    assert total == 1


def test_sample_mu_lands_in_support():
    rng = Random(11)
    p = MuParams(2, 7, 3)
    for _ in range(40):
        pair = sample_mu(p, rng)
        assert pair.x.bit_count() == 3 and pair.y.bit_count() == 3
        assert pair.fits(7)
        assert pair.intersection_size == 2
        assert mu_prob(p, pair) == p.point_mass()


def test_identity_sides_frozen_factors():
    p = MuParams(1, 4, 2)
    one = identity_sides("I", p)
    assert one.lhs == MuParams(2, 5, 3)
    assert one.rhs == MuParams(1, 4, 2)
    assert one.factor == Fraction(binom(4, 1), binom(5, 2))
    two = identity_sides("II", p)
    assert two.lhs == MuParams(1, 5, 3)
    assert two.rhs == MuParams(0, 4, 2)
    assert two.factor == Fraction(1, binom(5, 1))
    three = identity_sides("III", p)
    assert three.lhs == MuParams(1, 4, 2)
    assert three.rhs == MuParams(0, 3, 1)
    assert three.factor == Fraction(1, binom(4, 1))
    four = identity_sides("IV", p)
    assert four.lhs == MuParams(2, 4, 2)
    assert four.rhs == MuParams(1, 3, 1)
    assert four.factor == Fraction(4 - 1, binom(4, 2))


def test_identity_sides_rejects_unknown_label():
    with pytest.raises(ParameterRangeError):
        identity_sides("V", MuParams(1, 4, 2))


def test_remove_coords_compacts_universe():
    out = remove_coords(parse_bits("10110"), (0, 3))
    assert bits(out, 3) == "010" and out < 1 << 3
    assert remove_coords(parse_bits("10110"), (3, 0, 3)) == out
    # Against deleting the characters of the display string.
    for n in range(6):
        for removed in ((), (0,), (n - 1,), (1, n - 2), tuple(range(0, n, 2))):
            if any(not 0 <= j < n for j in removed):
                continue
            for mask in range(1 << n):
                kept = "".join(c for j, c in enumerate(bits(mask, n)) if j not in removed)
                assert bits(remove_coords(mask, removed), len(kept)) == kept
                assert remove_coords(mask, removed) >> len(kept) == 0


def test_check_lemma4_exact_on_a_small_case():
    for name in ("I", "II", "III", "IV"):
        rep = check_lemma4(name, MuParams(1, 4, 2))
        assert rep.holds
        assert rep.max_abs_diff == 0
        assert rep.pairs_checked == rep.lhs_params.support_size


def test_check_lemma4_reports_a_doubled_factor(monkeypatch):
    real = combinatorics.identity_sides
    monkeypatch.setattr(
        combinatorics, "identity_sides", lambda name, p: replace(real(name, p), factor=2 * real(name, p).factor)
    )
    for name in LIFTING_IDENTITIES:
        sides = real(name, MuParams(1, 4, 2))
        left, right = sides.lhs.support_size, sides.rhs.support_size
        rep = check_lemma4(name, MuParams(1, 4, 2))
        assert rep.pairs_checked == left
        assert rep.max_abs_diff == abs(Fraction(1, left) - 2 * sides.factor / right)
        assert not rep.holds


def test_check_lemma4_reports_pairs_outside_the_right_side(monkeypatch):
    real = combinatorics.identity_sides

    def wrong_meet(name, p):
        sides = real(name, p)
        rhs = sides.rhs
        wrong = MuParams(rhs.k + 1 if rhs.k < rhs.m else rhs.k - 1, rhs.n, rhs.m)
        assert not wrong.is_empty
        return replace(sides, rhs=wrong)

    monkeypatch.setattr(combinatorics, "identity_sides", wrong_meet)
    for name in LIFTING_IDENTITIES:
        rep = check_lemma4(name, MuParams(1, 4, 2))
        left = rep.lhs_params.support_size
        assert rep.pairs_checked == left
        assert rep.max_abs_diff == Fraction(1, left)


def test_check_lemma4_refuses_a_reduced_pair_outside_the_right_universe(monkeypatch):
    real = combinatorics.identity_sides
    # Identity III deletes k coordinates into a universe k smaller; deleting none overflows it.
    monkeypatch.setattr(combinatorics, "identity_sides", lambda name, p: replace(real(name, p), removed=0))
    with pytest.raises(DimensionMismatchError):
        check_lemma4("III", MuParams(1, 4, 2))


def test_check_lemma4_enumerates_its_support_once(monkeypatch):
    # The benchmark's per-layer pair counts read these calls and lengths.
    real = combinatorics.enumerate_support
    lengths = []

    def counting(p):
        out = real(p)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(combinatorics, "enumerate_support", counting)
    for name in LIFTING_IDENTITIES:
        lengths.clear()
        rep = check_lemma4(name, MuParams(1, 5, 2))
        assert lengths == [rep.pairs_checked] == [rep.lhs_params.support_size]


def test_check_lemma4_out_of_range():
    # identity IV needs meet k+1 nonempty: k = m makes the left side empty
    with pytest.raises(ParameterRangeError):
        check_lemma4("IV", MuParams(2, 4, 2))


def test_intersection_ratio_closed_form_and_n_independence():
    for k, expected in ((0, Fraction(1, 2)), (1, Fraction(1, 2)), (2, Fraction(3, 4)), (3, Fraction(5, 4))):
        for n in range(k, k + 5):
            assert intersection_ratio(n, k) == expected
    with pytest.raises(ParameterRangeError):
        intersection_ratio(2, 3)


def test_intersection_ratio_growth_from_k_one():
    # each meet increment multiplies the ratio by (2k+1)/(k+1) >= 3/2
    for k in range(1, 12):
        assert intersection_ratio(20, k + 1) >= Fraction(3, 2) * intersection_ratio(20, k)


def test_valid_mu_params_enumerates_nonempty_only():
    seen = list(valid_mu_params(4))
    assert all(not p.is_empty for p in seen)
    assert MuParams(1, 4, 2) in seen
    assert MuParams(3, 4, 2) not in seen
    assert all(p.n <= 4 for p in seen)


def test_valid_mu_params_support_filter():
    small = list(valid_mu_params(8, max_support=100))
    assert all(p.support_size <= 100 for p in small)
