"""Weight matrices and exact maximum-weight rectangle search."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbound.combinatorics import InputPair, MuParams
from rectbound.errors import CapExceededError, DimensionMismatchError, ParameterRangeError
from rectbound.lp_bounds.model import FULL_FAMILY, RectangleFamily, avoid_disjoint_family, witness_family
from rectbound.rectangles import (
    Rectangle,
    WeightMatrix,
    decompose_by_witness,
    enumerate_rectangles,
    max_weight_rectangle,
    max_weight_rectangle_avoiding_disjoint,
    max_weight_rectangle_in_rv,
    mu_mass_of_rectangle,
    rect_weight,
    string_masks,
    witness_set,
    witness_sets,
)


def _random_matrix(rng: Random, n: int, rows: int, cols: int) -> WeightMatrix:
    side = 1 << n
    entries = []
    xs = rng.sample(range(side), min(rows, side))
    ys = rng.sample(range(side), min(cols, side))
    for x in xs:
        for y in ys:
            entries.append((InputPair(x, y), Fraction(rng.randint(-6, 9), rng.randint(1, 4))))
    return WeightMatrix(n, dict(entries))


def _brute_force_max(w: WeightMatrix, family: RectangleFamily = FULL_FAMILY) -> Fraction:
    best = Fraction(0)  # the empty rectangle is always available
    for rect in enumerate_rectangles(w.n, w.xs(), w.ys()):
        if not family.contains(rect):
            continue
        value = rect_weight(w, rect)
        if value > best:
            best = value
    return best


def test_rectangle_basics():
    r = Rectangle.from_bits(["10", "11"], ["01"])
    assert r.n == 2
    assert r.pair_count == 2
    assert not r.is_empty
    assert r.contains(InputPair.from_bits("11", "01"))
    assert not r.contains(InputPair.from_bits("01", "01"))
    assert set(r.pairs()) == {
        InputPair.from_bits("10", "01"),
        InputPair.from_bits("11", "01"),
    }


def test_empty_rectangle_needs_universe():
    r = Rectangle.empty(3)
    assert r.is_empty and r.pair_count == 0
    full = Rectangle.full(1)
    assert full.pair_count == 4


def test_rect_weight_hand_case():
    w = WeightMatrix.from_entries(
        2,
        [
            ("10", "10", Fraction(1)),
            ("10", "11", Fraction(2)),
            ("11", "10", Fraction(-1)),
        ],
    )
    r = Rectangle.from_bits(["10", "11"], ["10", "11"])
    assert rect_weight(w, r) == 2
    assert w.total() == 2
    assert w.value(InputPair.from_bits("10", "11")) == 2
    assert w.value(InputPair.from_bits("01", "01")) == 0


def test_from_mu_scales_point_mass():
    p = MuParams(1, 3, 1)
    w = WeightMatrix.from_mu(p, scale=Fraction(6))
    # support: three pairs (x == y singletons), point mass 1/3 each
    assert w.support_size == 3
    assert all(v == Fraction(2) for _, v in w.items())


def test_combine_scale_restrict():
    a = WeightMatrix.from_entries(1, [("1", "1", Fraction(1))])
    b = WeightMatrix.from_entries(1, [("1", "1", Fraction(2)), ("0", "1", Fraction(5))])
    c = a.combine(b)
    assert c.value(InputPair.from_bits("1", "1")) == 3
    assert c.scale(Fraction(1, 3)).value(InputPair.from_bits("0", "1")) == Fraction(5, 3)
    r = Rectangle.from_bits(["1"], ["1"])
    assert a.combine(b).restrict(r.contains).support_size == 1


def test_oracle_matches_brute_force_on_seeded_matrices():
    rng = Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        w = _random_matrix(rng, n, rng.randint(1, 4), rng.randint(1, 4))
        rect, value = max_weight_rectangle(w)
        assert value == _brute_force_max(w)
        assert rect_weight(w, rect) == value
        rect, value = max_weight_rectangle_avoiding_disjoint(w)
        assert value == _brute_force_max(w, avoid_disjoint_family())
        assert avoid_disjoint_family().contains(rect)
        assert rect_weight(w, rect) == value
        for k in range(n + 1):
            rect, value, witness = max_weight_rectangle_in_rv(w, k)
            assert value == _brute_force_max(w, witness_family(k))
            assert witness_family(k).contains(rect)
            assert rect_weight(w, rect) == value
            assert (witness is None) == rect.is_empty


def _oracle_results(w: WeightMatrix) -> list:
    """Every oracle's answer on w: plain, avoid-disjoint and witness k = 0..n."""
    results = [max_weight_rectangle(w), max_weight_rectangle_avoiding_disjoint(w)]
    results += [max_weight_rectangle_in_rv(w, k) for k in range(w.n + 1)]
    return results


def test_exact_and_float_sweeps_pick_the_same_rectangle():
    # Dyadic weights are exact as floats, so the float sweep makes the same
    # comparisons as the integer one, ties included.
    rng = Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        shape = _random_matrix(rng, n, rng.randint(1, 5), rng.randint(1, 5))
        dyadic = WeightMatrix(
            n, {pair: Fraction(rng.randint(-3, 4), rng.choice((1, 2, 4))) for pair in shape.weights}
        )
        as_float = WeightMatrix(n, {pair: float(v) for pair, v in dyadic.items()})
        assert _oracle_results(dyadic) == _oracle_results(as_float)


def test_exact_sweep_with_coprime_denominators_matches_brute_force():
    rng = Random(23)
    units = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 2**61 - 1)]
    for _ in range(20):
        n = rng.randint(1, 3)
        shape = _random_matrix(rng, n, rng.randint(1, 4), rng.randint(1, 4))
        w = WeightMatrix(n, {pair: rng.randint(-5, 6) * rng.choice(units) for pair in shape.weights})
        rect, value = max_weight_rectangle(w)
        assert type(value) is Fraction
        assert value == _brute_force_max(w)
        assert rect_weight(w, rect) == value
        rect, value = max_weight_rectangle_avoiding_disjoint(w)
        assert value == _brute_force_max(w, avoid_disjoint_family())
        assert rect_weight(w, rect) == value


def test_oracle_value_type_follows_the_weights():
    pairs = [InputPair.from_bits(x, y) for x in ("01", "11") for y in ("10", "11")]
    ints = WeightMatrix(2, {p: v for p, v in zip(pairs, (3, -1, 2, 1))})
    fractions = ints.scale(Fraction(1, 3))
    floats = WeightMatrix(2, {p: float(v) for p, v in ints.items()})
    mixed = WeightMatrix(2, {**fractions.weights, pairs[0]: 1.5})
    assert max_weight_rectangle(ints) == (Rectangle.from_bits(["01", "11"], ["10"]), Fraction(5))
    assert type(max_weight_rectangle(ints)[1]) is Fraction
    assert max_weight_rectangle(fractions)[1] == Fraction(5, 3)
    assert type(max_weight_rectangle(fractions)[1]) is Fraction
    assert max_weight_rectangle(floats)[1] == 5.0
    assert type(max_weight_rectangle(floats)[1]) is float
    # One float weight sends the whole matrix down the float path.
    assert type(max_weight_rectangle(mixed)[1]) is float
    assert max_weight_rectangle(mixed)[1] == pytest.approx(1.5 + 2 / 3)


IMPROVING_FAMILIES = [FULL_FAMILY, witness_family(1), avoid_disjoint_family()]


@pytest.mark.parametrize("family", IMPROVING_FAMILIES, ids=RectangleFamily.describe)
def test_improving_list_of_the_oracle_sweep(family):
    # Float duals on every pair at n=3.  They are dyadic, so every sum is
    # exact and each value can be compared with rect_weight for equality.
    rng = Random(31)
    pairs = [InputPair(x, y) for x in range(8) for y in range(8)]
    for _ in range(6):
        w = WeightMatrix(3, {pair: rng.randint(-48, 32) / 16 for pair in pairs})
        plain = family.separation_oracle(w)
        rect, value, _ = plain
        assert rect_weight(w, rect) == value
        for above in (0.0, value / 2, 1.0):
            found = family.separation_oracle(w, above)
            assert found[:3] == plain
            improving = list(found[3])
            if value > above:
                assert improving[0] == (rect, value)
            else:
                assert improving == []
            values = [v for _, v in improving]
            assert values == sorted(values, reverse=True)
            assert all(v > above and v == rect_weight(w, r) for r, v in improving)
            rects = [r for r, _ in improving]
            assert len(set(rects)) == len(rects)
            assert all(family.contains(r) and not r.is_empty for r in rects)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1), st.randoms(use_true_random=False))
def test_oracle_dominates_random_rectangles(rmask, cmask, pyrng):
    rng = Random(pyrng.randint(0, 10**9))
    w = _random_matrix(rng, 2, 3, 3)
    _, best = max_weight_rectangle(w)
    xs, ys = w.xs(), w.ys()
    rows = [s for i, s in enumerate(xs) if (rmask >> i) & 1]
    cols = [s for i, s in enumerate(ys) if (cmask >> i) & 1]
    r = Rectangle(2, sum(1 << s for s in rows), sum(1 << s for s in cols))
    assert rect_weight(w, r) <= best


def test_in_rv_oracle_returns_valid_witness():
    p = MuParams(1, 4, 2)
    w = WeightMatrix.from_mu(p)
    rect, value, wit = max_weight_rectangle_in_rv(w, 1)
    assert value > 0
    assert wit is not None and len(wit.coords) == 1
    bit = 1 << (wit.coords[0] - 1)
    for pair in rect.pairs():
        assert pair.x & bit and pair.y & bit


def test_in_rv_maximum_never_exceeds_plain_maximum():
    rng = Random(9)
    for _ in range(10):
        w = _random_matrix(rng, 3, 4, 4)
        _, plain = max_weight_rectangle(w)
        _, in_rv, _ = max_weight_rectangle_in_rv(w, 1)
        assert in_rv <= plain


def test_avoiding_disjoint_oracle_excludes_disjoint_pairs():
    rng = Random(13)
    for _ in range(10):
        w = _random_matrix(rng, 3, 4, 4)
        rect, value = max_weight_rectangle_avoiding_disjoint(w)
        for pair in rect.pairs():
            assert pair.intersection_size > 0
        _, plain = max_weight_rectangle(w)
        assert value <= plain


def test_oracle_subset_cap_enforced(monkeypatch):
    w = WeightMatrix.from_mu(MuParams(1, 4, 2))
    monkeypatch.setenv("RECTBOUND_ORACLE_SUBSET_CAP", "4")
    with pytest.raises(CapExceededError):
        max_weight_rectangle(w)


def test_witness_set_lex_smallest():
    r = Rectangle.from_bits(["110", "111"], ["110"])
    wit = witness_set(r, 1)
    assert wit is not None and wit.coords == (1,)
    assert witness_set(r, 3) is None
    with pytest.raises(ParameterRangeError):
        witness_set(Rectangle.empty(3), 1)


def test_mu_mass_full_rectangle_is_one():
    p = MuParams(1, 5, 2)
    full = Rectangle.full(5)
    assert mu_mass_of_rectangle(p, full) == 1
    assert mu_mass_of_rectangle(p, Rectangle.empty(5)) == 0


def test_decomposition_identity_small():
    p = MuParams(2, 5, 2)  # meet k+1 with k = 1
    r = Rectangle.full(5)
    rep = decompose_by_witness(r, 1, p)
    assert rep.holds
    assert rep.lhs == 1
    with pytest.raises(ParameterRangeError):
        decompose_by_witness(r, 1, MuParams(1, 5, 2))


def test_enumerate_rectangles_counts_and_cap(monkeypatch):
    xs = [0b0, 0b1]
    rects = list(enumerate_rectangles(1, xs, xs))
    assert len(rects) == 16  # subsets of a 2x2 grid of labels
    assert len(set(rects)) == 16 and all(r.n == 1 for r in rects)
    assert list(enumerate_rectangles(2, [], [])) == [Rectangle.empty(2)]
    with pytest.raises(DimensionMismatchError):
        list(enumerate_rectangles(1, [0b10], xs))  # label outside a 1-element universe
    monkeypatch.setenv("RECTBOUND_RECTANGLE_CAP", "8")
    with pytest.raises(CapExceededError):
        list(enumerate_rectangles(1, xs, xs))


def test_string_masks_and_witness_strings_match_brute_force():
    for n in range(5):
        for members in range(1 << (1 << n)):
            assert list(string_masks(members)) == [s for s in range(1 << n) if members >> s & 1]
        for k in range(n + 1):
            for witness in witness_sets(n, k):
                marking = [
                    s for s in range(1 << n) if all(s >> (c - 1) & 1 for c in witness.coords)
                ]
                assert witness.strings == sum(1 << s for s in marking)


def test_weight_matrix_rejects_pairs_outside_the_universe():
    with pytest.raises(DimensionMismatchError):
        WeightMatrix(2, {InputPair(4, 0): 1})
    with pytest.raises(DimensionMismatchError):
        WeightMatrix(2, {InputPair(0, -1): 1})
    with pytest.raises(DimensionMismatchError):
        WeightMatrix.from_entries(3, [("10", "10", 1)])
    with pytest.raises(ParameterRangeError):
        WeightMatrix.from_entries(2, [("10", "1x", 1)])
    assert WeightMatrix(2, {InputPair(3, 0): 1}).xs() == [3]


def test_rectangle_rejects_sets_outside_the_universe():
    with pytest.raises(DimensionMismatchError):
        Rectangle(2, 1 << 4, 1)
    with pytest.raises(DimensionMismatchError):
        Rectangle(2, 1, -1)
    assert Rectangle(2, (1 << 4) - 1, 1).pair_count == 4
