"""`enumerate_support` as a read-only view over two mask arrays."""

import tracemalloc

import numpy as np
import pytest

from rectbound.combinatorics import InputPair, MuParams, SupportView, check_lemma4, enumerate_support


def test_view_indexes_like_the_list_of_its_pairs():
    p = MuParams(1, 5, 2)
    support = enumerate_support(p)
    pairs = list(support)
    assert isinstance(support, SupportView)
    assert len(support) == len(pairs) == p.support_size
    for i in (0, 1, 17, len(pairs) - 1, -1, -2, -len(pairs)):
        assert support[i] == pairs[i]
        assert type(support[i]) is InputPair and type(support[i].x) is int and type(support[i].y) is int
    for i in (len(pairs), -len(pairs) - 1):
        with pytest.raises(IndexError):
            support[i]
    assert support[3:11] == pairs[3:11] and support[::-7] == pairs[::-7]
    assert support.index(pairs[5]) == 5 and pairs[5] in support


def test_view_iterates_input_pairs_of_ints():
    support = enumerate_support(MuParams(2, 6, 3))
    pairs = list(support)
    assert all(type(pair) is InputPair and type(pair.x) is int and type(pair.y) is int for pair in pairs)
    assert list(zip(support.x.tolist(), support.y.tolist())) == pairs
    assert list(support) == pairs  # a view iterates again from the start


def test_view_equality():
    p = MuParams(1, 4, 2)
    support = enumerate_support(p)
    pairs = list(support)
    assert support == pairs and pairs == support
    assert support == enumerate_support(p)
    assert support == tuple(pairs)
    assert support != pairs[:-1]
    assert support != pairs[::-1]
    assert support != enumerate_support(MuParams(2, 4, 2))
    assert support != "not pairs"


def test_empty_support_is_an_empty_view():
    support = enumerate_support(MuParams(3, 4, 2))
    assert len(support) == 0 and not support
    assert support == [] and list(support) == []
    with pytest.raises(IndexError):
        support[0]


def test_view_arrays_are_read_only_and_hold_python_ints_past_62_bits():
    p = MuParams(0, 70, 1)
    support = enumerate_support(p)
    assert support.x.dtype == object and support.y.dtype == object
    assert all(type(v) is int for v in support.x.tolist() + support.y.tolist())
    assert support[-1] == (1 << 69, 1 << 68)
    assert enumerate_support(MuParams(1, 5, 2)).x.dtype == np.int64
    with pytest.raises(ValueError):
        support.x[0] = 0


def test_check_lemma4_peak_memory_stays_small():
    # Identity II at (3, 8, 3) checks 92,400 pairs.  The parent commit's tuple
    # list and its round trip back to arrays peaked at 19.7 MB here; the mask
    # arrays peak at 7.5 MB.
    tracemalloc.start()
    try:
        report = check_lemma4("II", MuParams(3, 8, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 92_400 and report.holds
    assert peak < 10**7, f"check_lemma4 peaked at {peak / 1e6:.1f} MB"


def test_check_lemma4_reads_its_support_in_bounded_slices():
    # The same 92,400 pairs in slices of 8,192: the two mask arrays (1.5 MB)
    # plus one slice's temporaries.  Whole-array temporaries reach about 7.4 MB.
    tracemalloc.start()
    try:
        report = check_lemma4("II", MuParams(3, 8, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 92_400 and report.holds
    assert peak < 3.5e6, f"check_lemma4 peaked at {peak / 1e6:.2f} MB"
