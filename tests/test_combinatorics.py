"""Distribution layer: point masses, supports, lifting identities."""

import hashlib
from dataclasses import astuple, replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import numpy as np
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
    int_dtype,
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


# ------------------------------------------------- per-pair references
# The enumeration and the sweep as they were before they went to mask
# arrays: nested `combinations`, and one membership test and one
# highest-first deletion per pair on Python ints.


def _reference_mask(coords):
    mask = 0
    for c in coords:
        mask |= 1 << c
    return mask


def _reference_support(p):
    if p.is_empty:
        return []
    out = []
    universe = range(p.n)
    for x_coords in combinations(universe, p.m):
        x_mask = _reference_mask(x_coords)
        rest_pool = [c for c in universe if c not in x_coords]
        for shared in combinations(x_coords, p.k):
            for outside in combinations(rest_pool, p.m - p.k):
                out.append(InputPair(x_mask, _reference_mask(shared) | _reference_mask(outside)))
    return out


def _reference_contains(p, x, y):
    if x >> p.n or y >> p.n:
        raise DimensionMismatchError(f"pair {(x, y)} does not fit universe size {p.n}")
    return x.bit_count() == p.m == y.bit_count() and (x & y).bit_count() == p.k


def _reference_delete(mask, gone):
    while gone:
        top = 1 << gone.bit_length() - 1
        mask = mask & top - 1 | mask >> 1 & -top
        gone ^= top
    return mask


def _reference_check(identity, p):
    """(pairs_checked, max_abs_diff) of the per-pair loop, from the sides `check_lemma4` would use."""
    sides = combinatorics.identity_sides(identity, p)
    lhs, rhs = sides.lhs, sides.rhs
    lhs_mass = Fraction(1, lhs.support_size)
    rhs_mass = sides.factor / rhs.support_size
    worst = Fraction(0)
    support = _reference_support(lhs)
    for x, y in support:
        shared, gone = x & y, 0
        for _ in range(sides.removed):
            low = shared & -shared
            gone |= low
            shared ^= low
        left = lhs_mass if _reference_contains(lhs, x, y) else 0
        reduced = _reference_delete(x, gone), _reference_delete(y, gone)
        right = rhs_mass if _reference_contains(rhs, *reduced) else 0
        worst = max(worst, abs(left - right))
    return len(support), worst


def _grid_lhs():
    """The left side of every identity the lifting sweep checks, once each."""
    seen = {}
    for p in valid_mu_params(8, 10**6):
        for name in LIFTING_IDENTITIES:
            try:
                sides = identity_sides(name, p)
            except ParameterRangeError:
                continue
            seen.setdefault(sides.lhs, None)
    return list(seen)


# m = 0, k = m, m = n, the empty meet, an empty support, the empty universe,
# and universes past 62 bits, whose masks live in object arrays.
EDGE_TRIPLES = [
    MuParams(0, 5, 0),
    MuParams(0, 0, 0),
    MuParams(2, 5, 2),
    MuParams(3, 3, 3),
    MuParams(0, 6, 3),
    MuParams(3, 4, 2),
    MuParams(0, 4, 3),
    MuParams(0, 70, 1),
    MuParams(2, 70, 2),
]


def test_enumerate_support_matches_the_nested_loops_on_the_grid_and_edges():
    lhs_sides = _grid_lhs()
    assert len(lhs_sides) > 100
    for p in lhs_sides + EDGE_TRIPLES:
        got = enumerate_support(p)
        assert got == _reference_support(p), p
        assert len(got) == p.support_size
        assert all(type(pair) is InputPair and type(pair.x) is int and type(pair.y) is int for pair in got), p


def test_mask_arrays_fall_back_to_python_ints_past_62_bits():
    assert int_dtype((1 << 62) - 1) is np.int64 and int_dtype(1 << 62) is object
    p = MuParams(0, 70, 1)
    support = enumerate_support(p)
    assert len(support) == 4830 and max(max(pair) for pair in support) == 1 << 69
    x = np.array([pair.x for pair in support], dtype=object)
    y = np.array([pair.y for pair in support], dtype=object)
    assert p.contains(x, y).all() and not MuParams(1, 70, 1).contains(x, y).any()
    with pytest.raises(DimensionMismatchError):
        MuParams(0, 69, 1).contains(x, y)


def test_contains_answers_mask_arrays_pair_by_pair():
    p = MuParams(1, 4, 2)
    x, y = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    on = p.contains(x.ravel(), y.ravel())
    assert on.tolist() == [p.contains(a, b) for a in range(16) for b in range(16)]
    assert on.sum() == p.support_size
    with pytest.raises(DimensionMismatchError, match=r"InputPair\(x=3, y=16\)"):
        p.contains(np.array([3, 3, 3]), np.array([5, 16, 32]))


def test_delete_lowest_agrees_on_ints_and_arrays():
    rng = Random(3)
    for n, dtype in ((12, np.int64), (70, object)):
        masks = [rng.getrandbits(n) for _ in range(200)]
        marked = [rng.getrandbits(n) for _ in range(200)]
        for count in range(4):
            expect = []
            for mask, mark in zip(masks, marked):
                gone = 0
                for _ in range(count):
                    gone |= (mark & ~gone) & -(mark & ~gone)
                expect.append(remove_coords(mask, [j for j in range(n) if gone >> j & 1]))
            got = combinatorics._delete_lowest(np.array(masks, dtype=dtype), np.array(marked, dtype=dtype), count)
            assert [int(v) for v in got] == expect


def _report_pair(rep):
    return rep.pairs_checked, rep.max_abs_diff


def test_check_lemma4_matches_the_per_pair_loop():
    checked = 0
    cases = [(name, p) for p in valid_mu_params(5) for name in LIFTING_IDENTITIES]
    # Past 62 bits, deleting one shared coordinate and none.
    cases += [("I", MuParams(1, 69, 1)), ("III", MuParams(1, 70, 1)), ("II", MuParams(0, 70, 1))]
    for name, p in cases:
        try:
            rep = check_lemma4(name, p)
        except ParameterRangeError:
            continue
        assert _report_pair(rep) == _reference_check(name, p), (name, p)
        checked += 1
    assert checked > 100


def test_check_lemma4_matches_the_per_pair_loop_on_tampered_sides(monkeypatch):
    real = combinatorics.identity_sides

    def doubled(name, p):
        return replace(real(name, p), factor=2 * real(name, p).factor)

    def wrong_meet(name, p):
        rhs = real(name, p).rhs
        return replace(real(name, p), rhs=MuParams(rhs.k + 1 if rhs.k < rhs.m else rhs.k - 1, rhs.n, rhs.m))

    for tamper in (doubled, wrong_meet):
        monkeypatch.setattr(combinatorics, "identity_sides", tamper)
        for p in (MuParams(1, 4, 2), MuParams(1, 6, 3), MuParams(2, 7, 3)):
            for name in LIFTING_IDENTITIES:
                rep = check_lemma4(name, p)
                assert not rep.holds
                assert _report_pair(rep) == _reference_check(name, p), (tamper.__name__, name, p)

    monkeypatch.setattr(combinatorics, "identity_sides", lambda name, p: replace(real(name, p), removed=0))
    for check in (check_lemma4, _reference_check):
        with pytest.raises(DimensionMismatchError):
            check("III", MuParams(1, 4, 2))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_check_lemma4_in_small_blocks_matches_the_per_pair_loop(monkeypatch, block):
    # Many slices and a short last one; a deviation seen in any slice counts.
    monkeypatch.setattr(combinatorics, "_LEMMA4_BLOCK", block)
    real = combinatorics.identity_sides

    def doubled(name, p):
        return replace(real(name, p), factor=2 * real(name, p).factor)

    for sides in (real, doubled):
        monkeypatch.setattr(combinatorics, "identity_sides", sides)
        for name, p in [(name, p) for p in (MuParams(1, 4, 2), MuParams(2, 7, 3)) for name in LIFTING_IDENTITIES] + [
            ("I", MuParams(1, 69, 1)),
            ("III", MuParams(1, 70, 1)),
        ]:
            rep = check_lemma4(name, p)
            assert rep.holds == (sides is real)
            assert _report_pair(rep) == _reference_check(name, p), (sides.__name__, name, p)

    # A pair outside the right universe is refused from whichever slice holds it.
    monkeypatch.setattr(combinatorics, "identity_sides", lambda name, p: replace(real(name, p), removed=0))
    with pytest.raises(DimensionMismatchError):
        check_lemma4("III", MuParams(1, 6, 3))


@pytest.mark.parametrize("block", [1, 7, 10**6])
def test_check_lemma4_counts_a_deviation_seen_only_in_the_first_slice(monkeypatch, block):
    monkeypatch.setattr(combinatorics, "_LEMMA4_BLOCK", block)
    real = combinatorics.identity_sides
    sides = real("I", MuParams(1, 4, 2))
    first_x = enumerate_support(sides.lhs).x[0]

    class OffAtFirstX(MuParams):
        """The left side, except that the pairs of its first x, the first 6 of 60, are off."""

        def contains(self, x, y):
            return super().contains(x, y) & (x != first_x)

    lhs = OffAtFirstX(*astuple(sides.lhs))
    monkeypatch.setattr(combinatorics, "identity_sides", lambda name, p: replace(sides, lhs=lhs))
    rep = check_lemma4("I", MuParams(1, 4, 2))
    assert rep.pairs_checked == 60
    assert rep.max_abs_diff == sides.factor / sides.rhs.support_size


# SHA-256 of the benchmark's lifting-sweep job output: the JSON records
# [identity, k, n, m, pairs_checked, lhs_support, max_abs_diff] of every
# check_lemma4 call over valid_mu_params(8, 10**6).
LIFTING_SWEEP_SHA256 = "9f1225f66d64d442246ceda571bd70f5244813c32d4b31d3dcf1285b23fe2b63"


def test_lifting_sweep_records_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.jobs import lifting_sweep

    assert hashlib.sha256(lifting_sweep().encode()).hexdigest() == LIFTING_SWEEP_SHA256
