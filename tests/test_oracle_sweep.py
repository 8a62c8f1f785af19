"""The block-wise numpy oracle sweep against the step-by-step Gray loop.

`_loop_max_rectangle` is the per-step loop the kernel replaced, kept here as
the reference.  Its float step values are added with an explicit left-to-right
`+=`: the kernel promises those IEEE sums, and `sum()` of floats is
compensated from Python 3.12 on.  Floats are compared with `==`.
"""

import tracemalloc
from fractions import Fraction
from itertools import islice
from math import lcm
from random import Random

import pytest

from rectbound import rectangles
from rectbound.combinatorics import InputPair
from rectbound.rectangles import (
    Rectangle,
    WeightMatrix,
    _max_rectangle,
    max_weight_rectangle_in_rv,
    witness_sets,
)


def _loop_max_rectangle(w: WeightMatrix, avoid_disjoint: bool, above=None) -> tuple:
    rows = w.xs()
    cols = w.ys()
    if not rows or not cols:
        empty = Rectangle.empty(w.n), Fraction(0)
        return empty if above is None else (*empty, [])
    transposed = len(rows) > len(cols)
    if transposed:
        rows, cols = cols, rows
    exact = all(isinstance(v, (int, Fraction)) for v in w.weights.values())
    scale = lcm(*(v.denominator for v in w.weights.values())) if exact else 1
    zero = 0 if exact else 0.0
    row_index = {s: i for i, s in enumerate(rows)}
    col_index = {s: j for j, s in enumerate(cols)}
    row_cells = [[] for _ in rows]
    for pair, value in w.weights.items():
        x, y = (pair.y, pair.x) if transposed else (pair.x, pair.y)
        cell = value.numerator * (scale // value.denominator) if exact else value
        row_cells[row_index[x]].append((col_index[y], cell))
    row_disjoint = [[j for j, c in enumerate(cols) if not r & c] if avoid_disjoint else [] for r in rows]
    bar = None if above is None else above * scale
    found = []
    col_sums = [zero] * len(cols)
    blocked = [0] * len(cols)
    row_set = 0
    best_value, best_rows, best_cols = zero, 0, 0
    for step in range(1, 1 << len(rows)):
        i = (step & -step).bit_length() - 1
        row_set ^= 1 << i
        delta = 1 if row_set >> i & 1 else -1
        for j, v in row_cells[i]:
            if delta > 0:
                col_sums[j] += v
            else:
                col_sums[j] -= v
        for j in row_disjoint[i]:
            blocked[j] += delta
        value = zero
        for s, b in zip(col_sums, blocked):
            if not b and s > 0:
                value += s
        improves = bar is not None and value > bar
        if improves or value > best_value:
            set_rows = sum(1 << r for p, r in enumerate(rows) if row_set >> p & 1)
            set_cols = sum(1 << c for c, s, b in zip(cols, col_sums, blocked) if not b and s > 0)
            if improves:
                found.append((value, set_rows, set_cols))
            if value > best_value:
                best_value, best_rows, best_cols = value, set_rows, set_cols
    found.sort(key=lambda entry: entry[0], reverse=True)

    def rectangle(value, set_rows, set_cols):
        if transposed:
            set_rows, set_cols = set_cols, set_rows
        return Rectangle(w.n, set_rows, set_cols), Fraction(value, scale) if exact else value

    best = rectangle(best_value, best_rows, best_cols) if best_value > 0 else (Rectangle.empty(w.n), Fraction(0))
    return best if above is None else (*best, [rectangle(*entry) for entry in found])


def _assert_same(w: WeightMatrix, above=None) -> None:
    for avoid_disjoint in (False, True):
        want = _loop_max_rectangle(w, avoid_disjoint, above)
        got = _max_rectangle(w, avoid_disjoint, above)
        if above is not None:
            got = (*got[:2], list(got[2]))
        assert got == want, (avoid_disjoint, above)
        assert type(got[1]) is type(want[1])
        if above is not None:
            assert [type(v) for _, v in got[2]] == [type(v) for _, v in want[2]]


def _matrix(rng: Random, n: int, draw) -> WeightMatrix:
    # At most 8 strings on one side keeps the reference loop quick, and up
    # to 16 on the other gives the step values long float sums.
    side = 1 << n
    xs = rng.sample(range(side), rng.randint(1, min(side, 8)))
    ys = rng.sample(range(side), rng.randint(1, side))
    if rng.random() < 0.5:
        xs, ys = ys, xs
    weights = {InputPair(x, y): draw() for x in xs for y in ys if rng.random() < 0.8}
    return WeightMatrix(n, weights)


DRAWS = {
    "ints": lambda rng: rng.randint(-6, 9),
    "fractions": lambda rng: Fraction(rng.randint(-6, 9), rng.randint(1, 7)),
    "floats": lambda rng: rng.uniform(-1.0, 0.7),
    "mixed": lambda rng: rng.choice((Fraction(rng.randint(-5, 4), rng.randint(1, 6)), rng.uniform(-1.0, 0.7))),
    "ties": lambda rng: rng.choice((-0.3, 0.1, 0.1, 0.2, 0.7)),
    "past-2^62": lambda rng: Fraction(rng.randint(-6, 9) * 2**70 + rng.randint(0, 5), rng.randint(1, 3)),
}


@pytest.mark.parametrize("kind", list(DRAWS))
def test_kernel_matches_the_gray_loop(kind):
    rng = Random(f"oracle-sweep:{kind}")
    draw = DRAWS[kind]
    for _ in range(25):
        w = _matrix(rng, rng.randint(1, 4), lambda: draw(rng))
        _assert_same(w)
        _, best = _loop_max_rectangle(w, False)
        for above in (Fraction(0), best / 2, best, -1, 0.1):
            _assert_same(w, above)


def test_symmetric_ties_keep_the_first_row_set_in_gray_order():
    # The same weight on (x, y) and (y, x): mirror rectangles tie exactly.
    rng = Random(5)
    for _ in range(8):
        weights = {}
        for x in range(8):
            for y in range(x, 8):
                weights[InputPair(x, y)] = weights[InputPair(y, x)] = rng.choice((-0.5, 0.25, 0.25, 0.75))
        w = WeightMatrix(3, weights)
        _assert_same(w)
        _assert_same(w, 0.5)


def test_float_sweep_compares_exactly_with_a_fraction_bar():
    # float(0.1) lies above 1/10, so both row sets worth 0.1 exceed the bar.
    w = WeightMatrix(1, {InputPair(0, 0): 0.1, InputPair(1, 1): -0.5})
    _assert_same(w, Fraction(1, 10))
    assert [v for _, v in _max_rectangle(w, False, Fraction(1, 10))[2]] == [0.1, 0.1]


@pytest.mark.parametrize("kind", ["fractions", "ties"])
def test_witness_merge_matches_an_eager_sort_of_every_list(kind):
    # The reference takes every witness's whole list, keeps each rectangle
    # where it was first found, and sorts stably by value, best first.
    rng = Random(f"witness-merge:{kind}")
    repeats = 0
    for _ in range(20):
        w = _matrix(rng, rng.randint(2, 3), lambda: DRAWS[kind](rng))
        for k in (1, 2):
            for above in (Fraction(0), Fraction(1, 10)):
                first_found = {}
                for witness in witness_sets(w.n, k):
                    m = witness.mask
                    restricted = w.restrict(lambda pair: pair.x & m == m and pair.y & m == m)
                    if restricted.support_size:
                        for rect, value in _max_rectangle(restricted, False, above)[2]:
                            repeats += rect in first_found
                            first_found.setdefault(rect, value)
                want = sorted(first_found.items(), key=lambda entry: entry[1], reverse=True)
                assert list(max_weight_rectangle_in_rv(w, k, above)[3]) == want
    assert repeats > 0


@pytest.mark.parametrize("block_cells", [1, 5, 40])
def test_sweep_across_many_blocks(monkeypatch, block_cells):
    monkeypatch.setattr(rectangles, "_BLOCK_CELLS", block_cells)
    rng = Random(block_cells)
    for kind in ("ints", "floats", "past-2^62"):
        draw = DRAWS[kind]
        for _ in range(4):
            w = _matrix(rng, 4, lambda: draw(rng))
            _assert_same(w)
            _assert_same(w, Fraction(1, 3))


def test_sweep_working_set_stays_within_its_blocks():
    # One unchunked sweep of 16 rows would hold 65,536 x 16 float64 column
    # sums at once: 8 MB.  The blocked sweep, with the arrays behind its
    # improving list, must stay well below that.
    rng = Random(16)
    w = WeightMatrix(4, {InputPair(x, y): rng.uniform(-1.0, 0.5) for x in range(16) for y in range(16)})
    _, best = _max_rectangle(w, False)
    tracemalloc.start()
    try:
        _max_rectangle(w, False, best / 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21, peak


def test_improving_list_builds_one_block_of_string_sets_at_a_time():
    # Every row set of this n=4 matrix exceeds the bar: 65,535 hits.  String
    # sets for all of them would take 8 MB in one (hits x 16) int64 array
    # alone; reading the first 10 may build those of one block only.
    rng = Random(4)
    w = WeightMatrix(4, {InputPair(x, y): rng.uniform(0.1, 1.0) for x in range(16) for y in range(16)})
    improving = _max_rectangle(w, False, 0.0)[2]
    tracemalloc.start()
    try:
        first = list(islice(improving, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert len(first) + sum(1 for _ in improving) == 2**16 - 1
    assert first[0] == _max_rectangle(w, False)
