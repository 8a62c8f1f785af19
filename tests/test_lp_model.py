"""LP builders: row censuses, senses, families, and the ambiguity variant."""

from fractions import Fraction
from itertools import combinations

import pytest

from rectbound.combinatorics import InputPair
from rectbound.errors import KindMismatchError, ParameterRangeError
from rectbound.lp_bounds import (
    CLASS_COVER,
    CLASS_ERROR,
    CLASS_PARTITION,
    CLASS_ZERO,
    FULL_FAMILY,
    LPInstance,
    PairConstraint,
    apply_ambiguity_variant,
    avoid_disjoint_family,
    build_lovasz_lp,
    build_search_lp,
    build_smooth_lp,
    witness_family,
)
from rectbound.rectangles import Rectangle
from rectbound.truth_tables import family

F = Fraction


def test_search_lp_row_census_n2_k1():
    lp = build_search_lp(2, 1, F(1))
    cover = lp.rows_of_class(CLASS_COVER)
    partition = lp.rows_of_class(CLASS_PARTITION)
    assert len(cover) == 6
    assert len(partition) == 1
    assert len(lp.rows_of_class(CLASS_ZERO)) == 0
    assert all(c.sense == ">=" and c.rhs == 1 for c in cover)
    assert all(c.pair.intersection_size == 1 for c in cover)
    only = partition[0]
    assert only.sense == "<=" and only.rhs == 1
    assert only.pair == InputPair.from_bits("11", "11")


def test_search_lp_zero_class_needs_full_family():
    lp = build_search_lp(2, 1, F(1), family=FULL_FAMILY, include_zero_class=True)
    zero = lp.rows_of_class(CLASS_ZERO)
    assert len(zero) == 9  # the disjoint pairs at n = 2
    assert all(c.sense == "==" and c.rhs == 0 for c in zero)
    with pytest.raises(ParameterRangeError):
        build_search_lp(2, 1, F(1), include_zero_class=True)


def test_search_lp_parameter_validation():
    with pytest.raises(ParameterRangeError):
        build_search_lp(2, 3, F(1))  # meet above the universe
    with pytest.raises(ParameterRangeError):
        build_search_lp(2, 1, F(2))
    with pytest.raises(ParameterRangeError):
        build_search_lp(2, 1, 0.5)  # floats never sneak in


def test_lovasz_rows_for_and():
    lp = build_lovasz_lp(family("AND", 1), F(1, 4))
    cover = lp.rows_of_class(CLASS_COVER)
    error = lp.rows_of_class(CLASS_ERROR)
    assert len(cover) == 1 and len(error) == 3
    assert cover[0].rhs == F(3, 4) and cover[0].sense == ">="
    assert all(c.rhs == F(1, 4) and c.sense == "<=" for c in error)
    with pytest.raises(ParameterRangeError):
        build_lovasz_lp(family("AND", 1), F(1, 2))
    with pytest.raises(ParameterRangeError):
        build_lovasz_lp(family("AND", 1), F(-1, 4))


def test_smooth_adds_partition_rows_on_ones():
    lov = build_lovasz_lp(family("EQ", 2), F(0))
    smo = build_smooth_lp(family("EQ", 2), F(0))
    assert len(smo.rows_of_class(CLASS_PARTITION)) == 4
    assert len(smo.rows_of_class(CLASS_COVER)) == len(lov.rows_of_class(CLASS_COVER))
    assert all(c.sense == "<=" and c.rhs == 1 for c in smo.rows_of_class(CLASS_PARTITION))


def test_ambiguity_variant_relaxes_partition_rhs():
    lp = build_search_lp(2, 1, F(1))
    relaxed = apply_ambiguity_variant(lp, F(2), 1)
    assert relaxed.rows_of_class(CLASS_PARTITION)[0].rhs == 4
    assert relaxed.param("ambiguity_rate") == F(2)
    assert relaxed.param("ambiguity_rhs") == 4
    # cover rows untouched
    assert relaxed.rows_of_class(CLASS_COVER) == lp.rows_of_class(CLASS_COVER)


def test_ambiguity_variant_guards():
    lp = build_search_lp(2, 1, F(1))
    with pytest.raises(ParameterRangeError):
        apply_ambiguity_variant(lp, F(-1), 1)
    with pytest.raises(ParameterRangeError):
        apply_ambiguity_variant(lp, F(1, 2), 1)  # rate * k not integral
    lov = build_lovasz_lp(family("AND", 1), F(0))
    with pytest.raises(KindMismatchError):
        apply_ambiguity_variant(lov, F(1), 1)


def test_witness_family_membership_and_size():
    fam = witness_family(1)
    members = fam.members(2)
    assert len(members) == 17  # 9 + 9 per witness minus the shared one
    for rect in members:
        assert not rect.is_empty
        assert fam.contains(rect)
    stray = Rectangle.from_bits(["01", "10"], ["01", "10"])
    assert not fam.contains(stray)


def test_avoid_disjoint_family_membership():
    fam = avoid_disjoint_family()
    for rect in fam.members(2):
        for pair in rect.pairs():
            assert pair.intersection_size > 0
    bad = Rectangle.from_bits(["01"], ["10"])
    assert not fam.contains(bad)
    good = Rectangle.from_bits(["01", "11"], ["01"])
    assert fam.contains(good)


def test_full_family_contains_everything_nonempty():
    members = FULL_FAMILY.members(1)
    assert len(members) == 9  # (2^2 - 1)^2 nonempty label subsets
    assert FULL_FAMILY.contains(Rectangle.from_bits(["0", "1"], ["1"]))


def _nonempty_subsets(masks):
    return [c for size in range(1, len(masks) + 1) for c in combinations(masks, size)]


def _expected_keys(blocks, keep=lambda rows, cols: True):
    """Sorted (row masks, col masks) of every nonempty rows x cols inside one block."""
    return sorted(
        {
            (rows, cols)
            for block in blocks
            for rows in _nonempty_subsets(block)
            for cols in _nonempty_subsets(block)
            if keep(rows, cols)
        }
    )


def test_member_order_matches_itertools():
    # members() order is the exact simplex's column order, so it fixes the
    # reported iteration counts and supports.
    assert [r.key() for r in FULL_FAMILY.members(1)] == _expected_keys([[0, 1]])
    assert [r.key() for r in FULL_FAMILY.members(2)] == _expected_keys([[0, 1, 2, 3]])
    # strings marking coordinate 1 (masks 1, 3) or coordinate 2 (masks 2, 3)
    assert [r.key() for r in witness_family(1).members(2)] == _expected_keys([[1, 3], [2, 3]])
    meets = lambda rows, cols: all(x & y for x in rows for y in cols)
    assert [r.key() for r in avoid_disjoint_family().members(2)] == _expected_keys(
        [[0, 1, 2, 3]], meets
    )


def test_duplicate_rows_rejected():
    pair = InputPair.from_bits("1", "1")
    row = PairConstraint(pair, ">=", F(1), CLASS_COVER)
    with pytest.raises(ParameterRangeError):
        LPInstance("search", 1, witness_family(1), (row, row), {})


def test_pair_constraint_validation():
    pair = InputPair.from_bits("1", "1")
    with pytest.raises(ParameterRangeError):
        PairConstraint(pair, ">", F(1), CLASS_COVER)
    with pytest.raises(ParameterRangeError):
        PairConstraint(pair, ">=", F(1), "mystery")
